package repro.core

import scala.collection.mutable

/** §V — assembling local partial matches at the coordinator.
  *
  * [[lec]] is the LEC-feature-based assembly (Alg. 3): LPMs are bucketed by
  * their LEC feature; the complete feature combinations found by
  * [[LecPruning.combos]] (Thm. 4) drive the joins, so only LPM tuples whose
  * features provably reach an all-ones LECSign are ever merged, and the
  * per-pair joinability test collapses to a binding-consistency check
  * (Thms. 2–3).
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
    val featId = features.zipWithIndex.toMap
    val byFeature = pms.groupBy(pm => featId(LecFeature.of(pm))).withDefaultValue(IndexedSeq.empty)
    var pairTests = 0L
    val matches = Vector.newBuilder[Vector[Long]]
    var nMatches = 0

    def merge(a: Array[Long], b: Seq[Long]): Array[Long] = {
      val out = new Array[Long](a.length)
      var i = 0
      while (i < a.length) {
        val x = a(i); val y = b(i)
        if (x >= 0 && y >= 0 && x != y) return null
        out(i) = math.max(x, y)
        i += 1
      }
      out
    }

    combos.complete.foreach { combo =>
      // smallest buckets first keeps intermediate products minimal; ties go
      // by feature, so the join order does not depend on `features`' order
      val buckets = combo.sortBy(f => (byFeature(f).size, features(f))).map(byFeature)
      if (buckets.forall(_.nonEmpty)) {
        var items: Vector[Array[Long]] = buckets.head.iterator.map(_.bind.toArray).toVector
        buckets.tail.foreach { bucket =>
          if (items.nonEmpty) {
            val next = Vector.newBuilder[Array[Long]]
            items.foreach { it =>
              bucket.foreach { pm =>
                pairTests += 1
                val m = merge(it, pm.bind)
                if (m != null) next += m
              }
            }
            items = next.result()
          }
        }
        items.foreach { m => matches += m.toVector; nMatches += 1 }
      }
    }
    (matches.result(), Stats(pairTests, combos.stats.joinTests, nMatches))
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
