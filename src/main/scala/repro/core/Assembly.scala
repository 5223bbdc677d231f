package repro.core

import java.util.Arrays
import scala.collection.mutable

/** §V — assembling local partial matches at the coordinator.
  *
  * [[lec]] is the LEC-feature-based assembly (Alg. 3): LPMs are bucketed by
  * their LEC feature; the complete feature combinations found by
  * [[LecPruning.combos]] (Thm. 4) drive the joins, so only LPM tuples whose
  * features provably reach an all-ones LECSign are ever merged, and the
  * per-pair joinability test collapses to a binding-consistency check
  * (Thms. 2–3). LPM bindings sit in one flat array per feature, and each
  * combination is joined as a nested loop over those arrays, in an order
  * fixed once for all combinations.
  *
  * [[basic]] is the VLDBJ'16-style baseline: a worklist join directly over
  * local partial matches, with every pairwise test paying the full
  * joinability check. Its join space is the quantity the paper's LEC
  * optimizations shrink; a test budget makes blowups report as DNF rather
  * than hanging (the paper's baselines time out similarly).
  */
object Assembly {

  final case class Stats(
      pairTests: Long,
      featureJoinTests: Long,
      numMatches: Int,
      dnf: Boolean = false,
  )

  /** LEC-feature-based assembly (Alg. 3).
    *
    * @param features distinct features, parallel to `combos`' indices
    * @param combos   complete feature combinations from [[LecPruning]]
    */
  def lec(
      q: EncodedQuery,
      pms: IndexedSeq[PMRow],
      features: IndexedSeq[LecFeature],
      combos: LecPruning.Combos,
  ): (Vector[Vector[Long]], Stats) = {
    val n = q.n
    val nf = features.size
    // bucket f: the bindings of feature f's LPMs, one after another (n each)
    val featId = features.iterator.zipWithIndex.toMap
    val ofPm = pms.iterator.map(pm => featId(LecFeature.of(pm))).toArray
    val size = new Array[Int](nf)
    ofPm.foreach(size(_) += 1)
    val buckets = Array.tabulate(nf)(f => new Array[Long](size(f) * n))
    val filled = new Array[Int](nf)
    for (i <- pms.indices) {
      val f = ofPm(i)
      pms(i).bind.copyToArray(buckets(f), filled(f) * n)
      filled(f) += 1
    }
    // join order: smallest buckets first keeps intermediate products minimal;
    // ties go by feature, so the order does not depend on `features`' order
    val rank = new Array[Int](nf)
    (0 until nf).sortBy(f => (size(f), features(f))).zipWithIndex.foreach { case (f, r) => rank(f) = r }

    var pairTests = 0L
    val matches = Vector.newBuilder[Vector[Long]]
    var nMatches = 0
    // two scratch buffers of partial matches (n longs each), read one, write the other
    val scratch = Array(new Array[Long](64 * n), new Array[Long](64 * n))

    combos.complete.foreach { combo =>
      val order = combo.toArray
      var a = 1
      while (a < order.length) { // insertion sort by rank
        val f = order(a); var b = a - 1
        while (b >= 0 && rank(order(b)) > rank(f)) { order(b + 1) = order(b); b -= 1 }
        order(b + 1) = f; a += 1
      }
      if (order.forall(size(_) > 0)) {
        var items = buckets(order(0)); var count = size(order(0))
        var w = 0; var k = 1
        while (k < order.length && count > 0) {
          val bucket = buckets(order(k)); val bn = size(order(k))
          var out = scratch(w); var next = 0
          var i = 0
          while (i < count) {
            var j = 0
            while (j < bn) {
              pairTests += 1
              if (out.length < (next + 1) * n) { out = Arrays.copyOf(out, 2 * out.length); scratch(w) = out }
              if (merge(items, i * n, bucket, j * n, out, next * n, n)) next += 1
              j += 1
            }
            i += 1
          }
          items = out; count = next; w ^= 1; k += 1
        }
        for (i <- 0 until count) { matches += Vector.tabulate(n)(x => items(i * n + x)); nMatches += 1 }
      }
    }
    (matches.result(), Stats(pairTests, combos.stats.joinTests, nMatches))
  }

  /** Merges bindings `a(ai until ai+n)` and `b(bi until bi+n)` into `out`
    * from `oi`; false when a vertex is bound to two different data vertices.
    */
  private def merge(a: Array[Long], ai: Int, b: Array[Long], bi: Int, out: Array[Long], oi: Int, n: Int): Boolean = {
    var x = 0
    while (x < n) {
      val u = a(ai + x); val v = b(bi + x)
      if (u >= 0 && v >= 0 && u != v) return false
      out(oi + x) = math.max(u, v)
      x += 1
    }
    true
  }

  /** Basic (no-LEC) assembly baseline: worklist join over raw LPMs with
    * global member-set deduplication. Joinability per pair: >=1 shared
    * crossing-edge mapping, no conflicting mapping, disjoint LECSigns, and
    * full binding consistency (the VLDBJ'16 conditions).
    */
  def basic(
      q: EncodedQuery,
      pms: IndexedSeq[PMRow],
      budget: Long = 50_000_000L,
  ): (Vector[Vector[Long]], Stats) = {
    val full = q.fullMask
    var pairTests = 0L
    var dnf = false
    val matches = Vector.newBuilder[Vector[Long]]
    var nMatches = 0

    case class State(members: Vector[Int], sign: Long, bind: Array[Long], cross: Map[Int, Cross])

    val crossIdx = mutable.HashMap.empty[Cross, mutable.ArrayBuffer[Int]]
    pms.zipWithIndex.foreach { case (pm, i) =>
      pm.cross.foreach(c => crossIdx.getOrElseUpdate(c, mutable.ArrayBuffer.empty) += i)
    }

    val seen = mutable.HashSet.empty[Vector[Int]]
    val stack = mutable.Stack.empty[State]
    pms.zipWithIndex.foreach { case (pm, i) =>
      if (seen.add(Vector(i)))
        stack.push(State(Vector(i), pm.sign, pm.bind.toArray, pm.cross.map(c => c.edge -> c).toMap))
    }

    def tryJoin(st: State, j: Int): Option[State] = {
      pairTests += 1
      val pm = pms(j)
      if ((st.sign & pm.sign) != 0) return None
      pm.cross.foreach { c =>
        st.cross.get(c.edge) match {
          case Some(sc) if sc != c => return None
          case _                   =>
        }
      }
      val nb = new Array[Long](st.bind.length)
      var i = 0
      while (i < st.bind.length) {
        val x = st.bind(i); val y = pm.bind(i)
        if (x >= 0 && y >= 0 && x != y) return None
        nb(i) = math.max(x, y)
        i += 1
      }
      Some(State((st.members :+ j).sorted, st.sign | pm.sign, nb, st.cross ++ pm.cross.map(c => c.edge -> c)))
    }

    while (stack.nonEmpty && !dnf) {
      val st = stack.pop()
      val cands = mutable.HashSet.empty[Int]
      st.cross.valuesIterator.foreach { c =>
        crossIdx.get(c).foreach(_.foreach(j => if (!st.members.contains(j)) cands += j))
      }
      val it = cands.iterator
      while (it.hasNext && !dnf) {
        val j = it.next()
        tryJoin(st, j).foreach { nx =>
          if (seen.add(nx.members)) {
            if (nx.sign == full) { matches += nx.bind.toVector; nMatches += 1 }
            else stack.push(nx)
          }
        }
        if (pairTests > budget) dnf = true
      }
    }
    (matches.result(), Stats(pairTests, 0, nMatches, dnf))
  }
}
