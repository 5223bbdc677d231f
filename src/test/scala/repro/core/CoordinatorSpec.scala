package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Workloads
import repro.part.{FragTriple, Partitioners}
import scala.util.Random

/** The coordinator without Spark: Alg. 2 against a brute-force enumeration
  * of feature subsets, and the pruning and assembly meters on the benchmark
  * queries pinned to fixed values.
  */
class CoordinatorSpec extends AnyFunSuite {
  import CoordinatorSpec.Reference

  /** Alg. 2's results read off all `2^|fs|` subsets of `fs`. */
  private def reference(q: EncodedQuery, fs: IndexedSeq[LecFeature]): Reference = {
    val m = fs.size
    val binds = fs.map(_.crossBindings(q))
    def compatible(a: Int, b: Int): Boolean =
      (fs(a).sign & fs(b).sign) == 0 &&
        fs(a).g.forall(c => fs(b).g.forall(d => c.edge != d.edge || c == d)) &&
        binds(a).forall { case (v, x) => binds(b).get(v).forall(_ == x) }
    def shares(a: Int, b: Int): Boolean = fs(a).g.exists(fs(b).g.contains)
    def members(s: Int): Seq[Int] = (0 until m).filter(i => (s >> i & 1) != 0)
    def connected(s: Int): Boolean = {
      var seen = Integer.lowestOneBit(s)
      var grown = true
      while (grown) {
        val next = members(s).filter(i => members(seen).exists(shares(i, _))).foldLeft(seen)(_ | 1 << _)
        grown = next != seen; seen = next
      }
      seen == s
    }
    val subsets = (1 until 1 << m).filter { s =>
      val ms = members(s)
      connected(s) && ms.forall(a => ms.forall(b => a >= b || compatible(a, b)))
    }
    def sign(s: Int) = members(s).foldLeft(0L)(_ | fs(_).sign)
    val (complete, open) = subsets.partition(sign(_) == q.fullMask)
    val joinTests = open.map { s =>
      (0 until m).count(j => (s >> j & 1) == 0 && (fs(j).sign & sign(s)) == 0 && members(s).exists(shares(_, j)))
    }.sum
    Reference(
      complete.map(members(_).toSet).toSet,
      complete.flatMap(members).toSet,
      complete.count(Integer.bitCount(_) > 1).toLong,
      open.size.toLong,
      joinTests.toLong,
    )
  }

  /** A path-4, triangle or square query with random edge directions. */
  private def randomQuery(rng: Random, nPred: Int): QueryGraph = {
    val vs = Seq("?a", "?b", "?c", "?d")
    val edges = rng.nextInt(3) match {
      case 0 => Seq(0 -> 1, 1 -> 2, 2 -> 3)
      case 1 => Seq(0 -> 1, 1 -> 2, 2 -> 0)
      case _ => Seq(0 -> 1, 1 -> 2, 2 -> 3, 3 -> 0)
    }
    QueryGraph.of(edges.map { case (s, o) =>
      val (x, y) = if (rng.nextBoolean()) (s, o) else (o, s)
      s"${vs(x)} p${rng.nextInt(nPred)} ${vs(y)}"
    }: _*)
  }

  test("Alg. 2 finds exactly the connected compatible feature sets of a brute-force enumeration") {
    var compared, withCombos, withMultiway, withRejects = 0
    for (seed <- 0 until 400) {
      val rng = new Random(9000 + seed)
      val g = TestGraphs.randomGraph(rng, 6 + rng.nextInt(6), 10 + rng.nextInt(12), 2)
      val k = 2 + rng.nextInt(4)
      val owners = TestGraphs.randomOwners(rng, g, k)
      randomQuery(rng, 2).encode(g.dict).foreach { q =>
        val features = TestGraphs.fragmentsOf(g, owners).toVector.sortBy(_._1).flatMap { case (f, ts) =>
          LocalMatcher.run(f, ts.iterator, q).filterNot(_.isCompleteLocal(q.fullMask)).map(LecFeature.of).distinct
        }
        if (features.size <= 16) {
          val want = reference(q, features)
          val got = LecPruning.combos(q, features)
          val ctx = s"seed $seed, ${features.size} features"
          assert(got.complete.size == want.complete.size, ctx)
          assert(got.complete.map(_.toSet).toSet == want.complete, ctx)
          assert(got.surviving == want.surviving, ctx)
          assert(got.stats.completeCombos == want.completeCombos, ctx)
          assert(got.stats.statesExplored == want.statesExplored, ctx)
          assert(got.stats.joinTests == want.joinTests, ctx)
          compared += 1
          if (want.complete.nonEmpty) withCombos += 1
          if (want.complete.exists(_.size > 2)) withMultiway += 1
          if (want.surviving.size < features.size) withRejects += 1
        }
      }
    }
    assert(compared >= 200 && withCombos >= 80 && withMultiway >= 40 && withRejects >= 150,
      s"compared $compared, with combos $withCombos, multi-way $withMultiway, with pruning $withRejects")
  }

  // --- the coordinator's meters, pinned ---------------------------------------
  // (statesExplored, joinTests, completeCombos, asmPairTests, numCrossingMatches)
  // at level Full, test tier, hash partitioning over 4 fragments, unfolded and
  // attribute-folded: the values the engine reported before pruning and
  // assembly moved onto interned, primitive state.
  private val pinned: Map[(String, Boolean), (Long, Long, Long, Long, Long)] = {
    val same = Seq(
      "LQ1" -> (1000L, 11944L, 177L, 243L, 177L), "LQ3" -> (0L, 0L, 0L, 0L, 0L),
      "LQ6" -> (210L, 74L, 10L, 22L, 10L), "LQ7" -> (605L, 1400L, 100L, 145L, 100L),
      "YQ1" -> (34L, 30L, 4L, 9L, 4L), "YQ2" -> (0L, 0L, 0L, 0L, 0L),
      "YQ3" -> (22170L, 54334L, 7085L, 25057L, 9956L), "YQ4" -> (67L, 58L, 8L, 17L, 8L),
      "BQ4" -> (30L, 22L, 4L, 5L, 4L), "BQ6" -> (114L, 132L, 0L, 0L, 0L), "BQ7" -> (194L, 100L, 0L, 0L, 0L))
    (same.flatMap { case (q, v) => Seq((q, false) -> v, (q, true) -> v) } ++
      Seq(("BQ5", false) -> (19L, 21L, 2L, 5L, 2L), ("BQ5", true) -> (12L, 8L, 2L, 3L, 2L))).toMap
  }

  /** The coordinator's steps of `GStoreD.general` at level `Full`, on
    * fragments built without Spark.
    */
  private def meters(
      frags: Map[Int, Vector[FragTriple]],
      q: EncodedQuery,
      k: Int,
  ): (IndexedSeq[LecFeature], (Long, Long, Long, Long, Long)) = {
    val len = 1 << 14
    val reqs = CandidateExchange.requirements(q)
    val uploads = frags.toSeq.flatMap { case (f, ts) => CandidateExchange.siteVectors(f, ts, reqs, len) }
    val (bits, _) = CandidateExchange.combine(k, len, reqs.map(_._1), uploads)
    val lpms = frags.toSeq.sortBy(_._1).map { case (f, ts) =>
      LocalMatcher.run(f, ts.iterator, q, bits).filterNot(_.isCompleteLocal(q.fullMask))
    }
    val features = lpms.flatMap(_.map(LecFeature.of).distinct).toIndexedSeq
    val combos = LecPruning.combos(q, features, maxStates = Long.MaxValue)
    val kept = combos.surviving.map(features)
    val fetched = lpms.flatten.filter(pm => kept(LecFeature.of(pm))).toIndexedSeq
    val (matches, asm) = Assembly.lec(q, fetched, features, combos)
    val vars = (0 until q.n).filter(q.vertices(_).isVar)
    val crossing = matches.map(m => vars.map(m)).distinct.size
    val st = combos.stats
    (features, (st.statesExplored, st.joinTests, st.completeCombos, asm.pairTests, crossing.toLong))
  }

  for (wl <- Seq("lubm", "yago", "btc"); folded <- Seq(false, true)) {
    test(s"$wl pruning and assembly meters are pinned, and so is the state cap (folded=$folded)") {
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
        val (features, got) = meters(frags, q, k)
        assert(got == pinned((name, folded)), name)
        val states = got._1
        LecPruning.combos(q, features, maxStates = states)
        if (states > 0) intercept[IllegalStateException](LecPruning.combos(q, features, maxStates = states - 1))
        name
      }
      assert(seen.toSet == pinned.keySet.collect { case (n, `folded`) if n.startsWith(w.name.take(1)) => n })
    }
  }
}

object CoordinatorSpec {

  /** What Alg. 2 must find, read off every subset of the features: the
    * subsets that are connected through shared identical `Cross`es and
    * pairwise compatible (disjoint signs, no two crosses on one query edge,
    * equal bindings on shared cross endpoints).
    */
  final case class Reference(
      complete: Set[Set[Int]],
      surviving: Set[Int],
      completeCombos: Long,
      statesExplored: Long,
      joinTests: Long,
  )
}
