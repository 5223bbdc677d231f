package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.rdf.RdfGraph
import scala.util.Random

/** The star kernel without Spark: on random graphs, partitionings and star
  * queries, the union of every site's [[StarMatcher.site]] after the
  * coordinator's leaf check equals the brute-force matches of the query with
  * its folded constraints turned back into edges.
  */
class StarKernelSpec extends AnyFunSuite {

  /** A random entity graph plus `attr` edges from entities to a few class
    * vertices that are never subjects, as attribute folding assumes.
    */
  private def graph(rng: Random): RdfGraph = {
    val nVerts = 6 + rng.nextInt(8)
    val entity = Seq.fill(12 + rng.nextInt(16)) {
      (s"v${rng.nextInt(nVerts)}", s"p${rng.nextInt(3)}", s"v${rng.nextInt(nVerts)}")
    }
    val attr = Seq.fill(4 + rng.nextInt(8))((s"v${rng.nextInt(nVerts)}", "attr", s"c${rng.nextInt(3)}"))
    RdfGraph.fromStrings(entity ++ attr)
  }

  /** A star centred at vertex 0: 1–3 leaves, each joined to the centre by
    * one or two edges in either direction, plus self-loops. Centre and
    * leaves are sometimes constants; predicates are sometimes variables
    * (only out of the centre: folded attribute edges are stored at their
    * subject alone). Constraints go on the centre and on the leaves.
    */
  private def starQuery(rng: Random, g: RdfGraph): EncodedQuery = {
    val entities = g.triples.filter(t => g.dict.str(t._2) != "attr").flatMap(t => Seq(t._1, t._3)).distinct
    val all = g.vertexIds
    val entityPreds = (0 until 3).flatMap(i => g.dict.idOpt(s"p$i"))
    val attr = g.dict.idOpt("attr")
    val nLeaves = 1 + rng.nextInt(3)
    val centre =
      if (rng.nextDouble() < 0.25) QVertex(entities(rng.nextInt(entities.size)), null) else QVertex(-1L, "c")
    val leaves = (1 to nLeaves).map { i =>
      if (rng.nextDouble() < 0.3) QVertex(all(rng.nextInt(all.size)), null) else QVertex(-1L, s"l$i")
    }
    val vertices = centre +: leaves
    val shape = (1 to nLeaves).flatMap(l => Seq.fill(1 + (if (rng.nextDouble() < 0.3) 1 else 0))(l)) ++
      Seq.fill(if (rng.nextDouble() < 0.3) 1 else 0)(0) // a self-loop
    val edges = shape.zipWithIndex.map { case (other, i) =>
      val out = other == 0 || rng.nextBoolean()
      val pred =
        if (out && rng.nextDouble() < 0.3) -1L
        else if (out && attr.isDefined && rng.nextDouble() < 0.2) attr.get
        else entityPreds(rng.nextInt(entityPreds.size))
      if (out) QEdge(i, 0, other, pred) else QEdge(i, other, 0, pred)
    }
    val attrEdges = g.triples.filter(t => attr.contains(t._2))
    val constraints = vertices.indices.flatMap { v =>
      if (rng.nextDouble() < 0.6) None
      else Some(v -> Seq.fill(1 + rng.nextInt(2)) {
        if (attrEdges.nonEmpty && rng.nextDouble() < 0.8) {
          val t = attrEdges(rng.nextInt(attrEdges.size)); (t._2, t._3)
        } else (entityPreds(rng.nextInt(entityPreds.size)), all(rng.nextInt(all.size)))
      })
    }.toMap
    EncodedQuery(vertices, edges, constraints)
  }

  /** `q`'s matches over the whole graph, each constraint `(p, o)` of `v`
    * read as an edge from `v` to a new constant vertex `o`.
    */
  private def reference(triples: Seq[(Long, Long, Long)], q: EncodedQuery): Set[Vector[Long]] = {
    val cons = q.constraints.toSeq.flatMap { case (v, cs) => cs.map(v -> _) }
    val unfolded = EncodedQuery(
      q.vertices ++ cons.map { case (_, (_, o)) => QVertex(o, null) },
      q.edges ++ cons.zipWithIndex.map { case ((v, (p, _)), i) => QEdge(q.edges.size + i, v, q.n + i, p) })
    BruteForce.centralMatches(triples, unfolded).map(_.take(q.n))
  }

  test("the sites' matches after the leaf check equal the definition") {
    var nonEmpty, constrained = 0
    for (seed <- 0 until 300) {
      val rng = new Random(7000 + seed)
      val g = graph(rng)
      val k = 1 + rng.nextInt(4)
      val owners = TestGraphs.randomOwners(rng, g, k)
      val folded = rng.nextBoolean()
      val frags = TestGraphs.fragmentsOf(g, owners, if (folded) g.dict.idOpt("attr").toSet else Set.empty)
      val q = starQuery(rng, g)
      val got = StarMatcher.combine(frags.toSeq.map { case (f, ts) => StarMatcher.site(f, ts, q, 0) })
      val want = reference(g.triples, q)
      assert(got.size == got.distinct.size, s"seed $seed")
      assert(got.toSet == want, s"seed $seed, folded=$folded, $q")
      if (want.nonEmpty) nonEmpty += 1
      if (want.nonEmpty && q.constraints.nonEmpty) constrained += 1
    }
    assert(nonEmpty >= 50 && constrained >= 25)
  }
}
