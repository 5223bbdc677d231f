package perfbench

import scala.collection.mutable

/** Turns a traced run's spans, counters and Spark meter into the per-layer
  * metrics. Op-level values are means per traced op; `part.*` is per build
  * (the traced set-up build).
  */
object Layers {

  /** Layers in the order an op runs through them. */
  val All: Seq[String] =
    Seq("part", "query", "cand", "lpm", "feature", "prune", "fetch", "assembly", "result", "star")
  /** Layers that launch Spark jobs; the others run on the driver only. */
  val OnSpark: Set[String] = Set("part", "cand", "lpm", "feature", "fetch", "result", "star")

  def work(meter: Meter, spans: Iterable[Span]): SparkWork = {
    val w = new SparkWork
    spans.map(_.group).toSet.foreach((g: String) => w += meter.group(g))
    w
  }

  private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  def metrics(tr: Tracer, meter: Meter, ops: Seq[Main.OpRecord]): Seq[(String, (Double, String))] = {
    val out = mutable.ArrayBuffer.empty[(String, (Double, String))]
    val opSpans = tr.spans.filter(_.op >= 0)
    val nOps = tr.opWalls.size.toDouble
    val builds = tr.spans.count(_.layer == "part").toDouble
    for (layer <- All) {
      val ss = if (layer == "part") tr.spans.filter(_.layer == "part") else opSpans.filter(_.layer == layer)
      val d = if (layer == "part") builds else nOps
      out += (if (layer == "query") "query.encode_ms" else s"$layer.ms") -> (ss.map(_.ms).sum / d, "ms")
      if (OnSpark(layer)) {
        val w = work(meter, ss)
        out += s"$layer.spark_jobs" -> (w.jobs / d, "count")
        out += s"$layer.stages" -> (w.stages / d, "count")
        out += s"$layer.tasks" -> (w.tasks / d, "count")
        out += s"$layer.task_ms" -> (w.taskMs / d, "ms")
        out += s"$layer.shuffle_kb" -> ((w.shuffleReadBytes + w.shuffleWriteBytes) / 1024.0 / d, "KB")
      }
    }
    def perOp(name: String, unit: String) = out += name -> (tr.total(name) / nOps, unit)
    def perBuild(name: String, unit: String) = out += name -> (tr.total(name) / builds, unit)
    perBuild("part.assign_ms", "ms")
    perBuild("part.build_ms", "ms")
    perBuild("part.stored_edges", "count")
    perBuild("part.crossing_edges", "count")
    perOp("cand.ship_kb", "KB")
    out += "cand.bit_fill" -> (ratio(tr.total("cand.bit_fill"), tr.total("cand.calls")), "ratio")
    perOp("lpm.count", "count")
    perOp("lpm.complete_local", "count")
    perOp("feature.count", "count")
    perOp("feature.lec_kb", "KB")
    out += "feature.compression" -> (ratio(tr.total("lpm.count"), tr.total("feature.count")), "ratio")
    perOp("prune.states", "count")
    perOp("prune.join_tests", "count")
    perOp("prune.complete_combos", "count")
    out += "prune.yield" -> (ratio(tr.total("prune.complete_combos"), tr.total("prune.states")), "ratio")
    perOp("fetch.lpms_kept", "count")
    out += "fetch.kept_frac" -> (ratio(tr.total("fetch.lpms_kept"), tr.total("lpm.count")), "ratio")
    perOp("assembly.pair_tests", "count")
    perOp("assembly.matches", "count")
    out += "assembly.yield" -> (ratio(tr.total("assembly.matches"), tr.total("assembly.pair_tests")), "ratio")
    perOp("result.rows", "count")
    out += "trace.coverage" -> (ratio(opSpans.map(_.ms).sum, tr.opWalls.sum), "ratio")
    val untraced = ops.filterNot(_.traced).map(_.ms)
    val traced = ops.filter(_.traced).map(_.ms)
    val base = untraced.sum / untraced.size
    out += "trace.overhead_frac" -> (ratio(traced.sum / traced.size - base, base), "ratio")
    out.toSeq
  }

  /** One line per query: traced ops, mean wall, and each layer's mean time
    * and Spark jobs per op.
    */
  def perQuery(tr: Tracer, meter: Meter): Seq[String] = {
    val opSpans = tr.spans.filter(_.op >= 0)
    opSpans.groupBy(_.query).toSeq.sortBy(_._1).map { case (q, ss) =>
      val ops = ss.map(_.op).distinct
      val n = ops.size.toDouble
      val wall = ops.map(tr.opWalls).sum / n
      val cover = ss.map(_.ms).sum / n
      val layers = All.flatMap { l =>
        val ls = ss.filter(_.layer == l)
        if (ls.isEmpty) None
        else Some(f"$l ${ls.map(_.ms).sum / n}%.1f ms/${work(meter, ls).jobs / n}%.0f jobs")
      }
      f"trace $q%-5s n=${ops.size} wall=$wall%.1f ms spans=$cover%.1f ms | ${layers.mkString(" | ")}"
    }
  }
}
