package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import scala.collection.mutable
import repro.core._
import repro.part.DistributedGraph

/** One timed call into a layer, inside op `op`. Spark work of the span is
  * the meter's job group `op<op>/<layer>`.
  */
final case class Span(op: Int, query: String, layer: String, startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
  def group: String = Tracer.group(op, layer)
}

/** Records spans, op wall times and per-layer counters in memory for the
  * traced run. Set-up spans carry op -1; traced ops count up from 0.
  */
final class Tracer(sc: SparkContext) {
  val spans = mutable.ArrayBuffer.empty[Span]
  val opWalls = mutable.ArrayBuffer.empty[Double]
  /** counter name -> value summed over the run */
  val counters = mutable.LinkedHashMap.empty[String, Double]
  var op = -1
  var query = ""

  def span[A](layer: String)(body: => A): A = {
    sc.setJobGroup(Tracer.group(op, layer), layer)
    val t0 = System.nanoTime()
    try body
    finally {
      spans += Span(op, query, layer, t0, System.nanoTime())
      sc.clearJobGroup()
    }
  }

  def count(name: String, v: Double): Unit = counters(name) = total(name) + v

  def total(name: String): Double = counters.getOrElse(name, 0.0)
}

object Tracer {
  def group(op: Int, layer: String): String = s"op$op/$layer"
}

/** The engine's `GStoreD.evaluate` (level `Full`, default limits) replayed
  * as the benchmark's own sequence of calls into the layer functions, each
  * wrapped in a span. The fold/encode glue and the general path are copied
  * from `GStoreD`; star and all-attribute queries, whose internals are
  * `private[core]`, are one `star` span around `GStoreD.evaluate`.
  *
  * Returns the collected result rows, their column names and the `Stats`
  * the engine would report, so the caller can check the replay against the
  * engine counter for counter.
  */
object Replay {

  val bitLen: Int = 1 << 14
  val maxPMs: Int = 5_000_000

  final case class Outcome(rows: Array[Row], cols: Seq[String], stats: Stats)

  def run(dg: DistributedGraph, query: QueryGraph, tr: Tracer): Outcome = {
    val encoded = tr.span("query") {
      val folded = query.fold(dg.attrPreds)
      val dict = dg.graph.dict
      val entries = folded.constraints.toSeq.map { case (t, cs) =>
        val ids = cs.map { case (p, o) => (dict.idOpt(p), dict.idOpt(o)) }
        if (ids.exists(x => x._1.isEmpty || x._2.isEmpty)) None
        else Some(t -> ids.map { case (p, o) => (p.get, o.get) })
      }
      folded.core match {
        case Some(core) if entries.forall(_.isDefined) =>
          val cons = entries.flatten.toMap
          val (onCore, offCore) = cons.partition { case (t, _) => core.vertexTerms.contains(t) }
          if (offCore.nonEmpty || core.isStar) None
          else core.encode(dict).map { q0 =>
            val consByIdx = onCore.map { case (t, cs) => core.vertexTerms.indexOf(t) -> cs }
            (core, q0.copy(constraints = consByIdx))
          }
        case _ => None
      }
    }
    val out = encoded match {
      case Some((core, q)) => general(dg, core, q, tr)
      case None =>
        // star, all-attribute, off-core or provably empty: one engine call
        val res = tr.span("star")(GStoreD.evaluate(dg, query))
        val rows = tr.span("result")(res.matches.collect())
        res.matches.unpersist()
        Outcome(rows, res.matches.columns.toSeq, res.stats)
    }
    tr.count("result.rows", out.rows.length)
    out
  }

  private def general(
      dg: DistributedGraph,
      core: QueryGraph,
      q: EncodedQuery,
      tr: Tracer,
  ): Outcome = {
    val spark = dg.spark
    import spark.implicits._

    val cand = tr.span("cand")(CandidateExchange.run(dg, q, bitLen))
    val fills = cand.bits.bits.values.map(ws => ws.map(java.lang.Long.bitCount).sum.toDouble / bitLen)
    tr.count("cand.ship_kb", cand.shipmentBytes / 1024.0)
    tr.count("cand.bit_fill", if (fills.isEmpty) 0.0 else fills.sum / fills.size)
    tr.count("cand.calls", 1)

    val bits = cand.bits
    val (all, completeLocal, lpmDs, numLpms) = tr.span("lpm") {
      val all = dg.fragTriples
        .groupByKey(_.frag)
        .flatMapGroups((f, it) => LocalMatcher.run(f, it, q, bits, maxPMs))
        .cache()
      val full = q.fullMask
      val completeLocal = all.filter(pm => pm.sign == full && pm.cross.isEmpty)
      val lpmDs = all.filter(pm => !(pm.sign == full && pm.cross.isEmpty))
      (all, completeLocal, lpmDs, lpmDs.count())
    }
    tr.count("lpm.count", numLpms)

    val (features, lecBytes) = tr.span("feature") {
      val fs = lpmDs.map(LecFeature.of).distinct().collect().toIndexedSeq
      (fs, fs.map(_.byteSize(q.n)).sum)
    }
    tr.count("feature.count", features.size)
    tr.count("feature.lec_kb", lecBytes / 1024.0)

    val combos = tr.span("prune")(LecPruning.combos(q, features))
    tr.count("prune.states", combos.stats.statesExplored)
    tr.count("prune.join_tests", combos.stats.joinTests)
    tr.count("prune.complete_combos", combos.stats.completeCombos)

    val (numKept, collected) = tr.span("fetch") {
      val surviving: Set[LecFeature] = combos.surviving.map(features)
      val survB = spark.sparkContext.broadcast(surviving)
      val keptDs = lpmDs.filter(pm => survB.value.contains(LecFeature.of(pm))).cache()
      (keptDs.count(), keptDs.collect().toIndexedSeq)
    }
    tr.count("fetch.lpms_kept", numKept)

    val (crossMatches, asmStats) = tr.span("assembly")(Assembly.lec(q, collected, features, combos))
    tr.count("assembly.pair_tests", asmStats.pairTests)
    tr.count("assembly.matches", crossMatches.size)

    val (rows, cols, numMatches, numCrossing) = tr.span("result") {
      val localMatches = completeLocal.collect().toVector.map(_.bind.toVector)
      tr.count("lpm.complete_local", localMatches.size)
      val varIdx = (0 until q.n).filter(q.vertices(_).isVar)
      val allMatches = (crossMatches ++ localMatches).map(b => varIdx.map(b)).distinct
      val crossDistinct = crossMatches.map(b => varIdx.map(b)).distinct
      val schema = StructType(core.variables.map(v => StructField(v, LongType, nullable = false)))
      val df = spark.createDataFrame(
        spark.sparkContext.parallelize(
          allMatches.map(m => Row.fromSeq(m)),
          math.max(1, spark.sparkContext.defaultParallelism / 4)),
        schema,
      )
      all.unpersist()
      (df.collect(), df.columns.toSeq, allMatches.size, crossDistinct.size)
    }

    Outcome(rows, cols, Stats(
      candTimeMs = cand.timeMs,
      candShipmentBytes = cand.shipmentBytes,
      lecShipmentBytes = lecBytes,
      numLpms = numLpms,
      numLpmsKept = numKept,
      numFeatures = features.size,
      numMatches = numMatches,
      numCrossingMatches = numCrossing,
      asmPairTests = asmStats.pairTests,
      asmDnf = asmStats.dnf,
    ))
  }

  /** The counters the replay must reproduce exactly (times excluded). */
  def counters(s: Stats): Seq[(String, Any)] = Seq(
    "numLpms" -> s.numLpms, "numLpmsKept" -> s.numLpmsKept, "numFeatures" -> s.numFeatures,
    "numMatches" -> s.numMatches, "numCrossingMatches" -> s.numCrossingMatches,
    "candShipmentBytes" -> s.candShipmentBytes, "lecShipmentBytes" -> s.lecShipmentBytes,
    "asmPairTests" -> s.asmPairTests, "asmDnf" -> s.asmDnf, "starFastPath" -> s.starFastPath,
  )
}
