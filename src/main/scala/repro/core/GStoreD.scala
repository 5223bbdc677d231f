package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import repro.part.DistributedGraph
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Optimization levels matching the §VIII-C ablation:
  * `Basic` = VLDBJ'16 framework (no LEC, no candidate exchange);
  * `LA` = + LEC-feature-based assembly (Alg. 3);
  * `LO` = + LEC-feature-based optimization/pruning (Alg. 2);
  * `Full` = + assembling variables' internal candidates (Alg. 4).
  */
sealed trait OptLevel { def name: String }
object OptLevel {
  case object Basic extends OptLevel { val name = "gStoreD-Basic" }
  case object LA extends OptLevel { val name = "gStoreD-LA" }
  case object LO extends OptLevel { val name = "gStoreD-LO" }
  case object Full extends OptLevel { val name = "gStoreD" }
  val all: Vector[OptLevel] = Vector(Basic, LA, LO, Full)
}

/** Per-stage metrics, mirroring the columns of Tables I–III. */
final case class Stats(
    candTimeMs: Long = 0,
    candShipmentBytes: Long = 0,
    lpmTimeMs: Long = 0,
    lecTimeMs: Long = 0,
    lecShipmentBytes: Long = 0,
    assemblyTimeMs: Long = 0,
    numLpms: Long = 0,
    numLpmsKept: Long = 0,
    numFeatures: Long = 0,
    numMatches: Long = 0,
    numCrossingMatches: Long = 0,
    asmPairTests: Long = 0,
    asmDnf: Boolean = false,
    starFastPath: Boolean = false,
) {
  def partialEvalTimeMs: Long = candTimeMs + lpmTimeMs + lecTimeMs
  def totalTimeMs: Long = partialEvalTimeMs + assemblyTimeMs
}

final case class QueryResult(matches: DataFrame, stats: Stats)

/** The distributed engine: gStore-style attribute folding, then every query
  * as pure-Scala work at each site (`DistributedGraph.perSite`, one Spark
  * job per round) plus steps at the coordinator (the driver). A star query
  * is one round of [[StarMatcher]] (§VIII-B); any other query is partial
  * evaluation — candidates (Alg. 4), LPMs and LEC features, pruning
  * (Alg. 2), a fetch of the surviving LPMs and assembly (Alg. 3). Signature
  * scans (all-attribute queries, off-core existence checks) run the per-site
  * kernel of Alg. 4, `CandidateExchange.internalMatches`. Every result is a
  * local `DataFrame` of rows already at the driver.
  */
object GStoreD {

  def evaluate(
      dg: DistributedGraph,
      query: QueryGraph,
      opt: OptLevel = OptLevel.Full,
      basicBudget: Long = 20_000_000L,
  ): QueryResult = {
    def result(vars: Seq[String], rows: Seq[Seq[Long]], stats: Stats): QueryResult = {
      val schema = StructType(vars.map(v => StructField(v, LongType, nullable = false)))
      QueryResult(dg.spark.createDataFrame(rows.map(Row.fromSeq).asJava, schema), stats)
    }
    def emptyResult(stats: Stats): QueryResult = result(query.variables, Nil, stats)

    val dict = dg.graph.dict
    val folded = query.fold(dg.attrPreds)

    // encode all attribute constraints up-front; a missing constant => empty
    val encodedCons: Option[Map[Term, Seq[(Long, Long)]]] = {
      val entries = folded.constraints.toSeq.map { case (t, cs) =>
        val ids = cs.map { case (p, o) => (dict.idOpt(p), dict.idOpt(o)) }
        if (ids.exists(x => x._1.isEmpty || x._2.isEmpty)) None
        else Some(t -> ids.map { case (p, o) => (p.get, o.get) })
      }
      if (entries.exists(_.isEmpty)) None else Some(entries.flatten.toMap)
    }
    if (encodedCons.isEmpty) return emptyResult(Stats(starFastPath = true))
    val cons = encodedCons.get

    folded.core match {
      case None =>
        // every pattern folded away: a single-vertex signature scan
        require(cons.size == 1, s"unsupported all-attribute query over ${cons.size} subjects")
        val t0 = System.nanoTime()
        val (term, cs) = cons.head
        val ids = CandidateExchange.scan(dg, cs.map(CandidateExchange.Req.attribute))
        val rows = term match {
          case Term.Var(_)   => ids.toSeq.map(Seq(_))
          case Term.Const(u) => // boolean query: non-empty scan, no variables
            if (dict.idOpt(u).exists(ids)) Seq(Nil) else Nil
        }
        result(query.variables, rows, Stats(lpmTimeMs = (System.nanoTime() - t0) / 1000000,
          numMatches = rows.size, starFastPath = true))

      case Some(core) =>
        val q0 = core.encode(dict).getOrElse(return emptyResult(Stats()))
        // no I-core spans two components, so a match could never assemble
        if (!q0.isConnected(q0.fullMask))
          throw new UnsupportedOperationException(
            s"entity core ${core.patterns.mkString(" . ")} is not connected")
        // constraints on terms outside the core: only constant subjects are
        // supported (a pure existence pre-check)
        val (onCore, offCore) = cons.partition { case (t, _) => core.vertexTerms.contains(t) }
        offCore.foreach {
          case (Term.Const(u), cs) =>
            val sid = dict.idOpt(u).getOrElse(return emptyResult(Stats(starFastPath = true)))
            if (!CandidateExchange.scan(dg, cs.map(CandidateExchange.Req.attribute)).contains(sid))
              return emptyResult(Stats(starFastPath = true))
          case (Term.Var(n), _) =>
            throw new UnsupportedOperationException(
              s"constraint on variable ?$n disconnected from the entity core")
        }
        val q = q0.copy(constraints = onCore.map { case (t, cs) => core.vertexTerms.indexOf(t) -> cs })
        val (rows, stats) = core.starCenter match {
          case Some(center) => star(dg, q, center)
          case None         => general(dg, q, opt, basicBudget)
        }
        // core.variables == query.variables up to order (folding drops no variables)
        result(core.variables, rows, stats)
    }
  }

  /** A match's values of the variables of `q`, in vertex order. */
  private def project(q: EncodedQuery): Seq[Long] => Vector[Long] = {
    val vars = (0 until q.n).filter(q.vertices(_).isVar)
    m => vars.iterator.map(m).toVector
  }

  /** §VIII-B: one round of [[StarMatcher]], no LPMs, no communication. */
  private def star(dg: DistributedGraph, q: EncodedQuery, center: Int): (Seq[Vector[Long]], Stats) = {
    val t0 = System.nanoTime()
    val sites = dg.perSite((f, ts) => StarMatcher.site(f, ts, q, center)).collect()
    val rows = StarMatcher.combine(sites.toSeq).map(project(q))
    (rows, Stats(lpmTimeMs = (System.nanoTime() - t0) / 1000000, numMatches = rows.size, starFastPath = true))
  }

  /** Partial evaluation in at most three rounds of per-site work. The
    * optimization level switches on the paper's accelerations one by one.
    */
  private def general(
      dg: DistributedGraph,
      q: EncodedQuery,
      opt: OptLevel,
      basicBudget: Long,
  ): (Seq[Vector[Long]], Stats) = {
    val candidates = opt == OptLevel.Full // Alg. 4
    val prune = candidates || opt == OptLevel.LO // Alg. 2
    val lecAssembly = opt != OptLevel.Basic // Alg. 3

    // round 1: variables' internal candidates
    val cand =
      if (candidates) CandidateExchange.run(dg, q)
      else CandidateExchange.Result(CandidateBits.empty, 0L, 0L)

    // round 2: the LPMs stay at their sites; each site reports its LPM count,
    // its complete local matches and its distinct features (a feature
    // carries its fragment, so they are distinct globally too)
    val t1 = System.nanoTime()
    val sites = dg.perSite((f, ts) =>
      LocalMatcher.run(f, ts.iterator, q, cand.bits).partition(!_.isCompleteLocal(q.fullMask))).persist()
    val (lpmCounts, locals, siteFeatures) = sites
      .map { case (lpms, local) => (lpms.size, local.map(_.bind), lpms.map(LecFeature.of).distinct) }
      .collect().toSeq.unzip3
    val features = siteFeatures.flatten.toIndexedSeq
    val lpmTimeMs = (System.nanoTime() - t1) / 1000000

    // LEC pruning at the coordinator (LA joins the features while assembling)
    val t2 = System.nanoTime()
    lazy val combos = LecPruning.combos(q, features)
    // when nothing is pruned the fetch keeps every LPM, as without pruning
    val surviving =
      if (prune && combos.surviving.size < features.size) Some(combos.surviving.map(features)) else None
    val lecTimeMs = (System.nanoTime() - t2) / 1000000

    // round 3: fetch the surviving LPMs (all of them without pruning) and
    // assemble them at the coordinator
    val t3 = System.nanoTime()
    val fetched =
      if (features.isEmpty || surviving.exists(_.isEmpty)) IndexedSeq.empty
      else {
        val keep = dg.spark.sparkContext.broadcast(surviving)
        sites.flatMap(_._1.filter(pm => keep.value.forall(_(LecFeature.of(pm))))).collect().toIndexedSeq
      }
    sites.unpersist()
    val (crossMatches, asmStats) =
      if (lecAssembly) Assembly.lec(q, fetched, features, combos)
      else Assembly.basic(q, fetched, basicBudget)
    // one hash-set pass; the crossing matches go in first, to be counted
    val proj = project(q)
    val distinct = mutable.LinkedHashSet.from(crossMatches.iterator.map(proj))
    val numCrossing = distinct.size
    val rows = (distinct ++= locals.iterator.flatten.map(proj)).toVector
    val assemblyTimeMs = (System.nanoTime() - t3) / 1000000

    (rows, Stats(
      candTimeMs = cand.timeMs,
      candShipmentBytes = cand.shipmentBytes,
      lpmTimeMs = lpmTimeMs,
      lecTimeMs = lecTimeMs,
      // only LO/Full ship features between sites; LA derives them from the
      // LPMs already at the coordinator
      lecShipmentBytes = if (prune) features.map(_.byteSize(q.n)).sum else 0L,
      assemblyTimeMs = assemblyTimeMs,
      numLpms = lpmCounts.sum,
      numLpmsKept = fetched.size,
      numFeatures = if (lecAssembly) features.size else 0,
      numMatches = rows.size,
      numCrossingMatches = numCrossing,
      asmPairTests = asmStats.pairTests,
      asmDnf = asmStats.dnf,
    ))
  }
}
