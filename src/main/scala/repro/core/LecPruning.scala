package repro.core

import java.util.Arrays
import scala.collection.mutable
import scala.util.hashing.MurmurHash3

/** §IV-C / Alg. 2 — coordinator-side join of LEC features.
  *
  * Enumerates every consistent, crossing-edge-connected combination of LEC
  * features whose LECSigns OR to all-ones (Thm. 4). Features appearing in
  * no complete combination are pruned together with all their LPMs.
  *
  * The paper's DFS over the LECSign-group join graph is realized as a
  * worklist search over feature combinations with global member-set
  * deduplication — each combination is visited exactly once, and extension
  * candidates come from a crossing-edge index, so only features sharing a
  * crossing-edge mapping (Def. 9 condition 2) are ever paired.
  * Def. 9's remaining conditions are enforced on each extension:
  * condition 1 (different fragments) is implied — two features from the
  * same fragment sharing a crossing edge would both mark the edge's
  * internal endpoint in their LECSign and fail the sign test; condition 3
  * is checked at vertex granularity (shared crossing-edge endpoints must
  * bind identically, which is what Thm. 3's proof uses); condition 4 is
  * the sign-disjointness test. Multi-way joins only require the new
  * feature to be joinable with the *accumulated* combination (Thm. 4), so
  * two same-fragment features may both participate through a third.
  *
  * The search runs on primitive state: each distinct `Cross` is interned to
  * an `Int` once, and a combination is its sorted member array, its sign,
  * the interned cross on each query edge and the data vertex bound to each
  * query vertex by a cross endpoint — flat arrays that an extension copies.
  */
object LecPruning {

  final case class Stats(
      var joinTests: Long = 0,
      var statesExplored: Long = 0,
      var completeCombos: Long = 0,
  )

  /** @param complete  feature-index sets whose signs OR to all-ones
    * @param surviving indices of features participating in some complete set
    */
  final case class Combos(
      complete: Vector[Vector[Int]],
      surviving: Set[Int],
      stats: Stats,
  )

  /** A feature combination; `-1` marks a query edge without a crossing edge
    * and a query vertex without a binding.
    */
  private final class State(
      val members: Array[Int], // sorted feature indices
      val sign: Long,
      val crossAt: Array[Int], // query edge -> interned crossing edge
      val vb: Array[Long], // query vertex -> data vertex (cross endpoints)
  )

  /** An exact set of member arrays: open addressing on each array's hash,
    * `Arrays.equals` on equal hashes.
    */
  private final class MemberSet {
    private var keys = new Array[Array[Int]](1 << 10)
    private var hashes = new Array[Int](1 << 10)
    private var size = 0

    /** Adds `m`; false when an equal array is already present. */
    def add(m: Array[Int]): Boolean = {
      val h = MurmurHash3.arrayHash(m)
      var i = h & (keys.length - 1)
      while (keys(i) != null) {
        if (hashes(i) == h && Arrays.equals(keys(i), m)) return false
        i = (i + 1) & (keys.length - 1)
      }
      keys(i) = m; hashes(i) = h; size += 1
      if (2 * size > keys.length) grow()
      true
    }

    private def grow(): Unit = {
      val (oldKeys, oldHashes) = (keys, hashes)
      keys = new Array[Array[Int]](2 * oldKeys.length); hashes = new Array[Int](keys.length)
      for (j <- oldKeys.indices if oldKeys(j) != null) {
        var i = oldHashes(j) & (keys.length - 1)
        while (keys(i) != null) i = (i + 1) & (keys.length - 1)
        keys(i) = oldKeys(j); hashes(i) = oldHashes(j)
      }
    }
  }

  /** Pairwise Def.-9 joinability (used by tests; the search inlines it). */
  def joinable(q: EncodedQuery, a: LecFeature, b: LecFeature): Boolean = {
    if (a.frag == b.frag) return false
    if ((a.sign & b.sign) != 0) return false
    val ag = a.g.map(c => c.edge -> c).toMap
    var shared = false
    b.g.foreach { c =>
      ag.get(c.edge) match {
        case Some(ac) if ac == c => shared = true
        case Some(_)             => return false
        case None                =>
      }
    }
    if (!shared) return false
    val av = a.crossBindings(q); val bv = b.crossBindings(q)
    av.forall { case (v, d) => bv.get(v).forall(_ == d) }
  }

  def combos(q: EncodedQuery, features: IndexedSeq[LecFeature], maxStates: Long = 20_000_000L): Combos = {
    val stats = Stats()
    val full = q.fullMask
    val nf = features.size

    // per feature: sign, interned crossing edges, cross-endpoint bindings
    val internId = mutable.HashMap.empty[Cross, Int]
    val edgeOf = mutable.ArrayBuffer.empty[Int] // interned cross -> query edge
    val sign = features.iterator.map(_.sign).toArray
    val crosses = features.iterator.map(_.g.iterator.map { c =>
      internId.getOrElseUpdate(c, { edgeOf += c.edge; edgeOf.size - 1 })
    }.toArray).toArray
    val (bindV, bindD) = features.iterator.map { f =>
      val b = f.crossBindings(q); (b.keys.toArray, b.values.toArray)
    }.toArray.unzip

    // crossing-edge index: interned cross -> features containing it
    val byCross = {
      val idx = Array.fill(edgeOf.size)(mutable.ArrayBuilder.make[Int])
      for (i <- 0 until nf; c <- crosses(i)) idx(c) += i
      idx.map(_.result())
    }

    // the state `st` plus feature j, whose members are `members`
    def extend(st: State, j: Int, members: Array[Int]): State = {
      val crossAt = st.crossAt.clone()
      crosses(j).foreach(c => crossAt(edgeOf(c)) = c)
      val vb = st.vb.clone()
      for (k <- bindV(j).indices) vb(bindV(j)(k)) = bindD(j)(k)
      new State(members, st.sign | sign(j), crossAt, vb)
    }
    val empty = new State(Array.emptyIntArray, 0L, Array.fill(q.edges.size)(-1), Array.fill(q.n)(-1L))

    val seen = new MemberSet
    val complete = Vector.newBuilder[Vector[Int]]
    val surviving = new Array[Boolean](nf)
    val stack = mutable.Stack.empty[State]

    for (i <- 0 until nf) {
      if (sign(i) == full) {
        // cannot happen for true LPMs (they have >=1 extended vertex), but
        // keep the engine total for robustness
        complete += Vector(i); surviving(i) = true
      } else stack.push(extend(empty, i, Array(i))) // extensions never revisit a singleton
    }

    // Def. 9 conditions 2+3 against the accumulated combination
    def consistent(st: State, j: Int): Boolean = {
      val cs = crosses(j)
      var k = 0
      while (k < cs.length) {
        val at = st.crossAt(edgeOf(cs(k)))
        if (at >= 0 && at != cs(k)) return false
        k += 1
      }
      val vs = bindV(j); val ds = bindD(j)
      k = 0
      while (k < vs.length) {
        val b = st.vb(vs(k))
        if (b >= 0 && b != ds(k)) return false
        k += 1
      }
      true
    }

    // extension candidates of the current state: stamping its members first
    // excludes them, stamping each candidate deduplicates
    val stamp = Array.fill(nf)(-1L)
    val cands = new Array[Int](nf)

    while (stack.nonEmpty) {
      val st = stack.pop()
      stats.statesExplored += 1
      if (stats.statesExplored > maxStates)
        throw new IllegalStateException(s"LEC feature join blowup: > $maxStates states")
      // features sharing one of the state's crossing edges (sign-disjointness
      // pre-filtered — it kills most candidates)
      st.members.foreach(stamp(_) = stats.statesExplored)
      var nc = 0
      var e = 0
      while (e < st.crossAt.length) {
        if (st.crossAt(e) >= 0) {
          val js = byCross(st.crossAt(e))
          var k = 0
          while (k < js.length) {
            val j = js(k)
            if (stamp(j) != stats.statesExplored && (sign(j) & st.sign) == 0) {
              stamp(j) = stats.statesExplored; cands(nc) = j; nc += 1
            }
            k += 1
          }
        }
        e += 1
      }
      var ci = 0
      while (ci < nc) {
        val j = cands(ci)
        stats.joinTests += 1
        if (consistent(st, j)) {
          val m = st.members
          val pos = -Arrays.binarySearch(m, j) - 1
          val members = new Array[Int](m.length + 1)
          System.arraycopy(m, 0, members, 0, pos)
          members(pos) = j
          System.arraycopy(m, pos, members, pos + 1, m.length - pos)
          if (seen.add(members)) {
            if ((st.sign | sign(j)) == full) {
              stats.completeCombos += 1
              complete += members.toVector
              members.foreach(surviving(_) = true)
            } else stack.push(extend(st, j, members))
          }
        }
        ci += 1
      }
    }

    Combos(complete.result(), (0 until nf).filter(surviving).toSet, stats)
  }
}
