package perfbench

import java.io.{File, PrintWriter}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.util.control.NonFatal
import repro.core.{GStoreD, QueryGraph, Stats}
import repro.part.{DistributedGraph, GraphPartitioner, Partitioners}
import repro.rdf.{LubmData, RdfGraph, YagoData}

/** Closed-loop SPARQL query benchmark of the gStoreD engine.
  *
  *   perfbench.Main --workload <lubm-hash|yago-heavy> --seed <n> --seconds <s>
  *                  --trace <0|1> --out <file> [--commit <id>] [--source-hash <h>]
  *
  * One driver thread issues ops back to back (one client): the next op
  * starts after the previous op's result rows are collected. `--trace 0`
  * prints the end-to-end metrics; `--trace 1` alternates untraced cycles
  * with cycles replayed layer by layer (see [[Replay]]) and prints the
  * per-layer metrics. The last line of standard output is the result
  * object; the full record, with the run conditions and every span, goes
  * to `--out`.
  */
object Main {

  val K = 12
  val Tier = "bench"
  val ShufflePartitions = 8
  val SetupReps = 5
  val WarmupCycles = 2
  val WarmupSeconds = 15.0

  final case class Args(
      workload: String,
      seed: Option[Long],
      seconds: Int,
      trace: Boolean,
      out: String,
      commit: String,
      sourceHash: String,
  )

  final case class Workload(
      name: String,
      dataset: String,
      seed: Long,
      spec: Product,
      graph: RdfGraph,
      attrPreds: Set[String],
      partitioner: GraphPartitioner,
      cycle: Vector[(String, QueryGraph)],
  )

  final case class OpRecord(query: String, traced: Boolean, star: Boolean, ms: Double, error: String,
      shipBytes: Long) {
    def ok: Boolean = error.isEmpty
  }

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    Args(need("workload"), kv.get("seed").map(_.toLong), need("seconds").toInt, trace, need("out"),
      kv.getOrElse("commit", "unknown"), kv.getOrElse("source-hash", "unknown"))
  }

  /** The `bench` tier of `repro.bench.Workloads`, with the generator seed
    * taken from the command line (defaults 7 and 11, as in that tier).
    */
  def workload(name: String, seed: Option[Long]): Workload = name match {
    case "lubm-hash" =>
      val spec = LubmData.Spec(nUniv = 60, gradsPerDept = 12, undergradsPerDept = 25,
        seed = seed.getOrElse(LubmData.Spec().seed))
      Workload(name, "LUBM", spec.seed, spec, LubmData.graph(spec), LubmData.attributePredicates,
        Partitioners.Hash, LubmData.queries.map { case (q, qg, _) => q -> qg })
    case "yago-heavy" =>
      val spec = YagoData.Spec(nPeople = 800, nMovies = 200, nCities = 60, nCountries = 6,
        seed = seed.getOrElse(YagoData.Spec().seed))
      Workload(name, "YAGO2", spec.seed, spec, YagoData.graph(spec), YagoData.attributePredicates,
        Partitioners.Hash, YagoData.queries.collect { case (q, qg, _) if q == "YQ3" => q -> qg })
    case other => throw new IllegalArgumentException(s"unknown workload: $other")
  }

  /** Every Spark setting the benchmark changes from Spark's defaults. */
  def sparkConf(scratch: String): Seq[(String, String)] = Seq(
    "spark.master" -> s"local[${Runtime.getRuntime.availableProcessors}]",
    "spark.sql.shuffle.partitions" -> ShufflePartitions.toString,
    "spark.ui.enabled" -> "false",
    "spark.driver.host" -> "127.0.0.1",
    "spark.local.dir" -> s"$scratch/spark-local",
    "spark.sql.warehouse.dir" -> s"$scratch/spark-warehouse",
  )

  def percentile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else {
      val pos = p * (s.size - 1)
      val lo = pos.toInt
      val hi = math.min(lo + 1, s.size - 1)
      s(lo) + (s(hi) - s(lo)) * (pos - lo)
    }
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  private val start = System.nanoTime()
  def log(msg: String): Unit = System.err.println(f"[perfbench] ${(System.nanoTime() - start) / 1e9}%7.2f s  $msg")

  def main(argv: Array[String]): Unit = {
    val code =
      try { new Bench(parse(argv)).run(); 0 }
      catch {
        case NonFatal(e) =>
          System.err.println(s"[perfbench] FAILED: $e")
          e.printStackTrace()
          1
      }
    sys.exit(code)
  }
}

final class Bench(a: Main.Args) {
  import Main._

  private val wl = workload(a.workload, a.seed)
  private val conf = sparkConf(System.getProperty("java.io.tmpdir"))
  private var meter: Meter = _
  private var spark: SparkSession = _
  private var dg: DistributedGraph = _
  /** Set by a traced set-up (`--trace 1`). */
  private var tracer: Option[Tracer] = None
  /** Engine counters per query, from untraced ops, for the replay self-check. */
  private val engineStats = mutable.LinkedHashMap.empty[String, Stats]
  private lazy val refs: Map[String, Answer] = Reference.answers(wl.graph, wl.cycle.distinct)

  def run(): Unit = {
    refs // reference answers are computed once, outside the set-up time
    log("generated data and reference answers")
    val setupTimes = (0 until SetupReps).map(_ => setup())
    val rt = Runtime.getRuntime
    // stopped sessions leave garbage that is freed over several collections
    val heapMb = (1 to 5).map { _ =>
      System.gc()
      Thread.sleep(50)
      (rt.totalMemory - rt.freeMemory) / (1024.0 * 1024.0)
    }.min
    log("set-up")

    val warm = cycles(WarmupSeconds, minCycles = WarmupCycles)(_ => evaluate)
    log(s"warm-up: ${warm.map(r => f"${r.query} ${r.ms}%.0f").mkString(", ")}")
    warm.filterNot(_.ok).foreach(r => log(s"warm-up op failed: ${r.query}: ${r.error}"))

    val conditions = mutable.LinkedHashMap[String, Any](
      "workload" -> wl.name,
      "dataset" -> wl.dataset,
      "tier" -> Tier,
      "seed" -> wl.seed,
      "data_spec" -> wl.spec.toString,
      "triples" -> wl.graph.numTriples,
      "k" -> K,
      "partitioner" -> wl.partitioner.name,
      "cycle" -> wl.cycle.map(_._1),
      "load" -> "closed loop, 1 client: one driver thread; the next op starts after the previous op's rows are collected",
      "master" -> spark.sparkContext.master,
      "nproc" -> rt.availableProcessors,
      "spark_conf_non_default" -> conf.toMap,
      "spark_version" -> spark.version,
      "scala_version" -> scala.util.Properties.versionNumberString,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "max_heap_mb" -> rt.maxMemory / (1024 * 1024),
      "git_commit" -> a.commit,
      "source_hash" -> a.sourceHash,
      "run_seconds" -> a.seconds,
      "warmup_ops" -> warm.size,
      "setup_reps" -> setupTimes.size,
      "trace" -> a.trace,
    )
    println(s"# conditions ${Json(conditions)}")

    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    val record = mutable.LinkedHashMap[String, Any]("conditions" -> conditions)
    meter.drain(spark.sparkContext)
    val jobs0 = meter.totalJobs
    val t0 = System.nanoTime()
    val ops = tracer match {
      case None     => cycles(a.seconds, minCycles = 1)(_ => evaluate)
      // untraced and traced cycles alternate, so warm-up drift hits both alike
      case Some(tr) => cycles(a.seconds, minCycles = 2, evenCycles = true)(c =>
          if (c % 2 == 0) evaluate else replay(tr, _))
    }
    val wall = (System.nanoTime() - t0) / 1e9
    meter.drain(spark.sparkContext)
    log(s"timed: ${ops.map(r => f"${r.query} ${r.ms}%.0f").mkString(", ")}")

    val n = ops.size.toDouble
    val extra = mutable.LinkedHashMap[String, Any](
      "ops" -> ops.size,
      "failed_frac" -> ops.count(!_.ok) / n,
      "star_p50_ms" -> median(ops.filter(_.star).map(_.ms)),
      "setup_s_each" -> setupTimes,
      "timed_wall_s" -> wall,
    )
    tracer match {
      case None =>
        val ms = ops.map(_.ms)
        metrics("setup_s") = (median(setupTimes), "s")
        metrics("ops_per_s") = (n / wall, "1/s")
        metrics("op_p50_ms") = (median(ms), "ms")
        metrics("op_p90_ms") = (percentile(ms, 0.9), "ms")
        metrics("complex_p50_ms") = (median(ops.filterNot(_.star).map(_.ms)), "ms")
        metrics("ship_kb_per_op") = (ops.map(_.shipBytes).sum / 1024.0 / n, "KB")
        metrics("spark_jobs_per_op") = ((meter.totalJobs - jobs0) / n, "count")
        metrics("heap_mb") = (heapMb, "MB")
      case Some(tr) =>
        metrics ++= Layers.metrics(tr, meter, ops)
        record("spans") = tr.spans.map(s => mutable.LinkedHashMap[String, Any](
          "op" -> s.op, "query" -> s.query, "layer" -> s.layer, "start_ns" -> s.startNs, "end_ns" -> s.endNs,
          "spark" -> Layers.work(meter, Seq(s)).toMap))
        Layers.perQuery(tr, meter).foreach(l => println(s"# $l"))
    }
    println(s"# extra ${Json(extra)}")
    for ((q, rs) <- ops.groupBy(r => (r.query, r.traced)).toSeq.sortBy(_._1)) {
      val mode = if (q._2) "traced" else "untraced"
      println(f"# op ${q._1}%-5s $mode%-8s n=${rs.size}%3d p50=${median(rs.map(_.ms))}%9.1f ms failed=${rs.count(!_.ok)}")
    }
    val failures = ops.filterNot(_.ok)
    failures.map(r => (r.query, r.error)).distinct.foreach { case (q, e) => println(s"# FAILED $q: $e") }

    val metricsJson = metrics.map { case (k, (v, u)) => k -> mutable.LinkedHashMap("value" -> v, "unit" -> u) }
    record("extra") = extra
    record("metrics") = metricsJson
    record("ops") = ops.map(r => mutable.LinkedHashMap[String, Any](
      "query" -> r.query, "traced" -> r.traced, "star" -> r.star, "ms" -> r.ms, "error" -> r.error))
    val out = new File(a.out)
    out.getParentFile.mkdirs()
    val pw = new PrintWriter(out, "UTF-8")
    try pw.println(Json(record)) finally pw.close()

    dg.fragTriples.unpersist()
    spark.stop()
    println(Json(mutable.LinkedHashMap[String, Any](
      "correct" -> failures.isEmpty,
      "attempted" -> ops.size,
      "failed" -> failures.size,
      "metrics" -> metricsJson,
    )))
  }

  /** Session start, partitioning and the materialised fragment store. A
    * traced set-up times partitioning and the build as a `part` span.
    */
  private def setup(): Double = {
    if (spark != null) { dg.fragTriples.unpersist(); spark.stop() }
    val t0 = System.nanoTime()
    val b = SparkSession.builder().appName(s"perfbench-${wl.name}")
    conf.foreach { case (k, v) => b.config(k, v) }
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    // a fresh meter and tracer per session: a traced run reports the last set-up
    meter = new Meter
    spark.sparkContext.addSparkListener(meter)
    if (a.trace) tracer = Some(new Tracer(spark.sparkContext))
    dg = tracer match {
      case None =>
        val d = DistributedGraph.build(spark, wl.graph, wl.partitioner, K, wl.attrPreds)
        d.fragTriples.count()
        d
      case Some(tr) =>
        tr.query = "setup"
        val d = tr.span("part") {
          val t1 = System.nanoTime()
          val owners = wl.partitioner.assign(wl.graph, K)
          val t2 = System.nanoTime()
          val d = DistributedGraph.fromOwners(spark, wl.graph, owners, K, wl.attrPreds)
          tr.count("part.stored_edges", d.fragTriples.count())
          tr.count("part.assign_ms", (t2 - t1) / 1e6)
          tr.count("part.build_ms", (System.nanoTime() - t2) / 1e6)
          d
        }
        tr.count("part.crossing_edges", d.numCrossingEdges)
        d
    }
    (System.nanoTime() - t0) / 1e9
  }

  /** Whole cycles of the workload until `seconds` have passed and at least
    * `minCycles` (an even number when `evenCycles`) are done. `op(c)` gives
    * the function that runs one query in cycle `c`.
    */
  private def cycles(seconds: Double, minCycles: Int, evenCycles: Boolean = false)(
      op: Int => ((String, QueryGraph)) => OpRecord): Vector[OpRecord] = {
    val out = Vector.newBuilder[OpRecord]
    val t0 = System.nanoTime()
    var c = 0
    while (c < minCycles || System.nanoTime() - t0 < seconds * 1e9 || (evenCycles && c % 2 == 1)) {
      val run = op(c)
      wl.cycle.foreach(q => out += run(q))
      c += 1
    }
    out.result()
  }

  /** One untraced op: `GStoreD.evaluate`, then collect the rows. */
  private def evaluate(q: (String, QueryGraph)): OpRecord = {
    val (name, qg) = q
    val t0 = System.nanoTime()
    try {
      val res = GStoreD.evaluate(dg, qg)
      val rows = res.matches.collect()
      val ms = (System.nanoTime() - t0) / 1e6
      res.matches.unpersist()
      engineStats.getOrElseUpdate(name, res.stats)
      val err = check(name, res.stats, Answer.of(rows, res.matches.columns.toSeq, qg.variables))
      OpRecord(name, traced = false, res.stats.starFastPath, ms, err,
        res.stats.candShipmentBytes + res.stats.lecShipmentBytes)
    } catch {
      case NonFatal(e) => OpRecord(name, traced = false, star = false, (System.nanoTime() - t0) / 1e6, e.toString, 0)
    }
  }

  /** One traced op: the layer-by-layer replay, checked against the engine's
    * counters for the same query. A replay that drifts from the engine
    * measures a different program, so a mismatch stops the run.
    */
  private def replay(tr: Tracer, q: (String, QueryGraph)): OpRecord = {
    val (name, qg) = q
    tr.op += 1
    tr.query = name
    val t0 = System.nanoTime()
    val out = Replay.run(dg, qg, tr)
    val ms = (System.nanoTime() - t0) / 1e6
    tr.opWalls += ms
    val engine = engineStats.getOrElse(name, sys.error(s"no untraced run of $name to check the replay against"))
    val drift = Replay.counters(engine).zip(Replay.counters(out.stats)).filter { case (e, r) => e != r }
    if (drift.nonEmpty)
      throw new IllegalStateException(s"replay of $name drifts from GStoreD.evaluate: " +
        drift.map { case ((k, e), (_, r)) => s"$k engine=$e replay=$r" }.mkString(", "))
    val err = check(name, out.stats, Answer.of(out.rows, out.cols, qg.variables))
    OpRecord(name, traced = true, out.stats.starFastPath, ms, err,
      out.stats.candShipmentBytes + out.stats.lecShipmentBytes)
  }

  private def check(name: String, s: Stats, got: Answer): String = {
    val exp = refs(name)
    if (s.asmDnf) "assembly did not finish (asmDnf)"
    else if (got != exp) s"answer $got, reference $exp"
    else ""
  }
}
