package repro.core

import repro.core.CandidateExchange.{Req, internalMatches, vertexReqs}
import repro.part.FragTriple

/** §VIII-B — a star query answered at its centre's site: crossing edges are
  * replicated, so the site owning a match's centre stores all its edges and
  * finds it alone, with no LPMs. The one thing it cannot decide is a folded
  * constraint on a leaf, whose attribute edges live at the leaf's owner; so
  * each site also reports its internal vertices that meet each leaf's
  * constraints, and [[combine]] checks the leaves at the coordinator.
  */
object StarMatcher {

  /** Full-width bindings (constants included) of the stars centred at the
    * site's internal vertices; per constrained leaf, the site's internal
    * vertices that carry its constraints.
    */
  final case class Site(matches: Vector[Vector[Long]], leafOk: Map[Int, Set[Long]])

  def site(frag: Int, trips: Seq[FragTriple], q: EncodedQuery, center: Int): Site = {
    val cq = q.vertices(center)
    val centres = internalMatches(frag, trips, vertexReqs(q, center)).filter(c => cq.isVar || c == cq.constId)
    val out = trips.filter(t => t.sFrag == frag && centres(t.s)).groupBy(_.s)
    val in = trips.filter(t => t.oFrag == frag && centres(t.o)).groupBy(_.o)

    // bind the other endpoint of `e` (the centre itself on a self-loop)
    def extend(bs: Vector[Vector[Long]], e: QEdge): Vector[Vector[Long]] = bs.flatMap { b =>
      val fromCentre = e.src == center
      val leaf = if (fromCentre) e.dst else e.src
      val stored = (if (fromCentre) out else in).getOrElse(b(center), Nil)
      stored.iterator
        .filter(t => e.predId < 0 || t.p == e.predId)
        .map(t => if (fromCentre) t.o else t.s)
        .filter(v => b(leaf) < 0 || b(leaf) == v)
        .map(b.updated(leaf, _))
        .toVector.distinct
    }
    val unbound = q.vertices.map(_.constId).toVector // constants start bound
    val matches = centres.toVector.flatMap(c => q.edges.foldLeft(Vector(unbound.updated(center, c)))(extend))
    val leafOk = q.constraints.collect { case (v, cs) if v != center =>
      v -> internalMatches(frag, trips, cs.map(Req.attribute))
    }
    Site(matches, leafOk)
  }

  /** The distinct matches of all sites whose constrained leaves are internal
    * matches of their constraints at some site.
    */
  def combine(sites: Seq[Site]): Vector[Vector[Long]] = {
    val ok = sites.flatMap(_.leafOk).groupMapReduce(_._1)(_._2)(_ ++ _)
    sites.iterator.flatMap(_.matches).filter(m => ok.forall { case (v, ids) => ids(m(v)) }).toVector.distinct
  }
}
