package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Workloads
import repro.core.CandidateExchange.SiteVector
import repro.part.{FragTriple, Partitioners}
import scala.util.Random

/** The Alg.-4 kernel without Spark: per-fragment candidate sets against a
  * direct reading of the definition, the coordinator's OR and meter against
  * values derived from those sets, and the paper's meters on the benchmark
  * queries pinned to fixed values.
  */
class CandidateKernelSpec extends AnyFunSuite {

  /** Alg. 4's definition read literally: `c` is an internal candidate of
    * variable `v` at site `f` iff, for every pattern incident to `v` and
    * every position `v` takes in it, `f` stores a matching edge with `c` at
    * that position and owned by `f`, and `f` stores every attribute edge
    * `(c, p, o)` required of `v` with `c` owned by `f`.
    */
  private def reference(f: Int, trips: Seq[FragTriple], q: EncodedQuery, v: Int): Set[Long] = {
    val domain = trips.flatMap(t => Seq(t.s, t.o)).toSet
    def predOk(pred: Long, t: FragTriple) = pred < 0 || t.p == pred
    def constOk(u: Int, id: Long) = q.vertices(u).isVar || q.vertices(u).constId == id
    domain.filter { c =>
      q.edges.forall { e =>
        (e.src != v || trips.exists(t =>
          t.s == c && t.sFrag == f && predOk(e.predId, t) && (e.dst == v || constOk(e.dst, t.o)))) &&
        (e.dst != v || trips.exists(t =>
          t.o == c && t.oFrag == f && predOk(e.predId, t) && (e.src == v || constOk(e.src, t.s))))
      } && q.constraints.getOrElse(v, Nil).forall { case (p, o) =>
        trips.exists(t => t.s == c && t.p == p && t.o == o && t.sFrag == f)
      }
    }
  }

  /** A random query over `g`'s vocabulary: a random spanning path plus extra
    * edges and self-loops, variable predicates, constants, and attribute
    * constraints drawn mostly from stored edges of the attribute predicates.
    */
  private def randomQuery(rng: Random, triples: Seq[(Long, Long, Long)], attr: Set[Long]): EncodedQuery = {
    val verts = triples.flatMap(t => Seq(t._1, t._3)).distinct
    val preds = triples.map(_._2).distinct
    val n = 2 + rng.nextInt(3)
    val vertices = (0 until n).map { i =>
      if (i > 0 && rng.nextDouble() < 0.25) QVertex(verts(rng.nextInt(verts.size)), null)
      else QVertex(-1L, s"v$i")
    }
    def pred() = if (rng.nextDouble() < 0.2) -1L else preds(rng.nextInt(preds.size))
    val spine = (1 until n).map(i => if (rng.nextBoolean()) (i - 1, i) else (i, i - 1))
    val extra = Seq.fill(rng.nextInt(3)) {
      val a = rng.nextInt(n)
      (a, if (rng.nextDouble() < 0.4) a else rng.nextInt(n))
    }
    val edges = (spine ++ extra).zipWithIndex.map { case ((s, o), i) => QEdge(i, s, o, pred()) }
    val attrEdges = triples.filter(t => attr(t._2))
    val constraints = (0 until n).filter(vertices(_).isVar).flatMap { v =>
      if (rng.nextDouble() < 0.4) None
      else Some(v -> Seq.fill(1 + rng.nextInt(2)) {
        if (attrEdges.nonEmpty && rng.nextDouble() < 0.8) {
          val t = attrEdges(rng.nextInt(attrEdges.size)); (t._2, t._3)
        } else (preds(rng.nextInt(preds.size)), verts(rng.nextInt(verts.size)))
      })
    }.toMap
    EncodedQuery(vertices, edges, constraints)
  }

  test("kernel equals the definition; run's OR and meter follow from the sets") {
    for (seed <- 0 until 300) {
      val rng = new Random(5000 + seed)
      val g = TestGraphs.randomGraph(rng, 8 + rng.nextInt(8), 18 + rng.nextInt(20), 3)
      val k = 1 + rng.nextInt(4)
      val owners = TestGraphs.randomOwners(rng, g, k)
      val attr =
        if (rng.nextBoolean()) Set(g.predicateIds(rng.nextInt(g.predicateIds.size))) else Set.empty[Long]
      val frags = TestGraphs.fragmentsOf(g, owners, attr)
      val q = randomQuery(rng, g.triples, attr)
      val reqs = CandidateExchange.requirements(q)
      val vars = (0 until q.n).filter(q.vertices(_).isVar)
      assert(reqs.map(_._1) == vars)

      val sets = for ((f, ts) <- frags; (v, rs) <- reqs) yield {
        val got = CandidateExchange.internalMatches(f, ts, rs)
        assert(got == reference(f, ts, q, v), s"seed $seed, fragment $f, vertex $v, $q")
        (f, v) -> got
      }

      val len = 64 << rng.nextInt(3)
      val uploads: Seq[SiteVector] =
        frags.toSeq.flatMap { case (f, ts) => CandidateExchange.siteVectors(f, ts, reqs, len) }
      val (bits, bytes) = CandidateExchange.combine(k, len, vars, uploads)
      val wantBytes = sets.values.filter(_.nonEmpty).map(s => math.min(len / 8L, 8L * s.size)).sum +
        vars.size * k.toLong * (len / 8)
      assert(bytes == wantBytes, s"seed $seed")
      assert(bits.len == len && bits.bits.keySet == vars.toSet)
      vars.foreach { v =>
        val set = sets.collect { case ((_, `v`), s) => s }.flatten.map(CandidateBits.bitOf(_, len))
        assert(bits.bits(v).toSeq == CandidateBits.fromBits(len, set).toSeq, s"seed $seed, vertex $v")
      }
    }
  }

  // --- the paper's meters, pinned ---------------------------------------------
  // candShipmentBytes and numLpms at level Full, test tier, hash partitioning
  // over 4 fragments, unfolded and attribute-folded: the values the engine
  // reported before Alg. 4 moved into the per-site kernel.
  private val pinned: Map[(String, Boolean), (Long, Long)] = {
    val same = Seq(
      "LQ1" -> (26752L, 802L), "LQ3" -> (24832L, 0L), "LQ6" -> (26608L, 183L), "LQ7" -> (28712L, 470L),
      "YQ1" -> (25384L, 23L), "YQ2" -> (16384L, 0L), "YQ3" -> (45216L, 2580L), "YQ4" -> (33304L, 46L),
      "BQ4" -> (25224L, 23L), "BQ6" -> (26184L, 114L), "BQ7" -> (34968L, 144L))
    (same.flatMap { case (q, v) => Seq((q, false) -> v, (q, true) -> v) } ++
      Seq(("BQ5", false) -> (25856L, 11L), ("BQ5", true) -> (25856L, 10L))).toMap
  }

  for (wl <- Seq("lubm", "yago", "btc"); folded <- Seq(false, true)) {
    test(s"$wl candidate shipment and LPM counts are pinned (folded=$folded)") {
      val w = Workloads.byName(wl, "test")
      val dict = w.graph.dict
      val attrPreds = if (folded) w.attrPreds else Set.empty[String]
      val k = 4
      val frags = TestGraphs.fragmentsOf(
        w.graph, Partitioners.Hash.assign(w.graph, k), attrPreds.flatMap(dict.idOpt))
      val seen = for ((name, qg, _) <- w.queries; fq = qg.fold(attrPreds); core <- fq.core
          if !core.isStar) yield {
        val cons = fq.constraints.map { case (t, cs) =>
          assert(core.vertexTerms.contains(t), s"$name: off-core constraint")
          core.vertexTerms.indexOf(t) -> cs.map { case (p, o) => (dict.id(p), dict.id(o)) }
        }
        val q = core.encode(dict).get.copy(constraints = cons)
        val len = 1 << 14
        val reqs = CandidateExchange.requirements(q)
        val uploads = frags.toSeq.flatMap { case (f, ts) => CandidateExchange.siteVectors(f, ts, reqs, len) }
        val (bits, shipment) = CandidateExchange.combine(k, len, reqs.map(_._1), uploads)
        val numLpms = frags.toSeq.map { case (f, ts) =>
          LocalMatcher.run(f, ts.iterator, q, bits).count(!_.isCompleteLocal(q.fullMask)).toLong
        }.sum
        assert((shipment, numLpms) == pinned((name, folded)), name)
        name
      }
      assert(seen.toSet == pinned.keySet.collect { case (n, `folded`) if n.startsWith(w.name.take(1)) => n })
    }
  }
}
