package repro.core

import repro.part.{DistributedGraph, FragTriple}

/** §VI / Alg. 4 — assembling variables' internal candidates.
  *
  * Each site computes, per query variable `v`, its *internal candidates*:
  * internal vertices that have a locally-matching incident edge for every
  * triple pattern incident to `v` and carry every folded attribute
  * constraint of `v` (internal vertices see all their edges locally, so this
  * is a complete per-site filter). Both kinds of condition are one [[Req]],
  * and [[internalMatches]] is the pure-Scala kernel that applies them to one
  * fragment; `GStoreD`'s signature scans run the same kernel via [[scan]].
  *
  * [[run]] is one round of `DistributedGraph.perSite`: every site hashes its
  * candidates into one fixed-length bit vector per variable, the
  * coordinator ORs them and broadcasts the result; `LocalMatcher` then
  * drops bindings whose bit is unset. Shipment is metered as the smaller of
  * the dense vector and the sparse id list per (site, variable) — plus the
  * fixed-length broadcast back — which is why selective queries ship far
  * less (as in Table I).
  */
object CandidateExchange {

  final case class Result(bits: CandidateBits, shipmentBytes: Long, timeMs: Long)

  /** One stored edge an internal vertex must have: predicate `pred` (-1:
    * any), the vertex as its subject (`out`) or object, and the other
    * endpoint `other` (-1: any).
    */
  final case class Req(pred: Long, out: Boolean, other: Long) {
    def vertex(t: FragTriple): Long = if (out) t.s else t.o

    /** `t` is such an edge and `vertex(t)` is internal to `frag`. Ownership
      * is read per triple: attribute edges carry the subject's fragment in
      * `oFrag`, so a last-write owner map would disagree.
      */
    def heldBy(frag: Int, t: FragTriple): Boolean =
      (pred < 0 || t.p == pred) &&
        (if (out) t.sFrag == frag && (other < 0 || t.o == other)
         else t.oFrag == frag && (other < 0 || t.s == other))
  }

  object Req {
    /** A folded attribute constraint `(p, o)`: an outgoing `p` edge to `o`. */
    def attribute(c: (Long, Long)): Req = Req(c._1, out = true, c._2)
  }

  /** The internal vertices of fragment `frag` that meet every requirement. */
  def internalMatches(frag: Int, trips: Seq[FragTriple], reqs: Seq[Req]): Set[Long] = {
    require(reqs.nonEmpty, "a vertex needs at least one requirement")
    reqs.iterator
      .map(r => trips.iterator.filter(r.heldBy(frag, _)).map(r.vertex).toSet)
      .reduce(_ intersect _)
  }

  /** Vertex `v` of `q`: one requirement per (incident edge, side at which
    * the vertex occurs), plus one per folded attribute constraint.
    */
  def vertexReqs(q: EncodedQuery, v: Int): Seq[Req] = {
    val edgeReqs = q.incident(v).flatMap { e =>
      // a variable endpoint has constId -1, so only constants restrict
      def req(out: Boolean) = Req(e.predId, out, q.vertices(if (out) e.dst else e.src).constId)
      (if (e.src == v) Seq(req(true)) else Nil) ++ (if (e.dst == v) Seq(req(false)) else Nil)
    }
    edgeReqs ++ q.constraints.getOrElse(v, Nil).map(Req.attribute)
  }

  /** [[vertexReqs]] of every variable vertex of `q`. */
  def requirements(q: EncodedQuery): Seq[(Int, Seq[Req])] =
    (0 until q.n).filter(q.vertices(_).isVar).map(v => v -> vertexReqs(q, v))

  /** One site's upload for variable `v`: candidate count and hashed vector. */
  final case class SiteVector(v: Int, count: Int, words: Array[Long])

  /** Site side of Alg. 4: a vector for every variable with candidates. */
  def siteVectors(frag: Int, trips: Seq[FragTriple], reqs: Seq[(Int, Seq[Req])], len: Int): Seq[SiteVector] =
    reqs.flatMap { case (v, rs) =>
      val cands = internalMatches(frag, trips, rs)
      if (cands.isEmpty) None
      else Some(SiteVector(v, cands.size, CandidateBits.fromBits(len, cands.map(CandidateBits.bitOf(_, len)))))
    }

  /** Coordinator side of Alg. 4: OR the uploads per variable and meter the
    * shipment — per upload the smaller of the dense vector and the id list,
    * plus the OR-ed vector of every variable sent back to each of `k` sites.
    */
  def combine(k: Int, len: Int, vars: Seq[Int], uploads: Seq[SiteVector]): (CandidateBits, Long) = {
    val bits = vars.map(_ -> new Array[Long](CandidateBits.wordsFor(len))).toMap
    uploads.foreach(u => u.words.indices.foreach(i => bits(u.v)(i) |= u.words(i)))
    val upload = uploads.map(u => math.min(len / 8L, 8L * u.count)).sum
    (CandidateBits(len, bits), upload + vars.size * k.toLong * (len / 8L))
  }

  def run(dg: DistributedGraph, q: EncodedQuery, len: Int = 1 << 14): Result = {
    val t0 = System.nanoTime()
    val reqs = requirements(q)
    val uploads = dg.perSite((f, ts) => siteVectors(f, ts, reqs, len)).collect().flatten
    val (bits, shipment) = combine(dg.k, len, reqs.map(_._1), uploads.toSeq)
    Result(bits, shipment, (System.nanoTime() - t0) / 1000000)
  }

  /** The exact ids of every site's [[internalMatches]]: one Spark job. */
  def scan(dg: DistributedGraph, reqs: Seq[Req]): Set[Long] =
    dg.perSite((f, ts) => internalMatches(f, ts, reqs)).collect().flatten.toSet
}
