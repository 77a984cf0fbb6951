package repro.core

import scala.collection.immutable.SortedMap
import scala.collection.mutable

/** PROPBOUNDS (Algorithm 3) — incremental detection for Problem 3.2.
  *
  * Under the proportional bound `α · s_D(p) · k / |D|` a pattern's status
  * can change in both directions as k grows: patterns satisfied by the
  * newly admitted tuple gain count (+1, which always outpaces the bound's
  * growth `α·s_D/|D| < 1`, so a biased pattern may recover but an
  * adequately represented one never slips on the tuple it gains), while
  * a pattern the tuple does not satisfy keeps its count and becomes
  * biased exactly when k reaches its `k̃` value (Section IV-C).
  *
  * The algorithm therefore tracks every visited node with its dataset
  * size and running top-k count, keeps the paper's `K` structure as
  * buckets `k̃ → patterns` (entries are verified lazily when their bucket
  * is reached), and resumes the top-down search below any node that flips
  * from biased to adequately represented and whose subtree had never been
  * expanded.
  *
  * `Res[k]` is the set of most general currently-biased visited nodes,
  * kept in a [[MostGeneral]]. Each k hands it only that k's delta: the
  * nodes that recovered, and the nodes that became biased (by reaching
  * `k̃`, or newly found below a recovered node). Only those, and the
  * members a leaving `Res` member subsumed, are re-classified; while
  * nothing flips successive k share one `Res` snapshot. The budget is
  * checked at the top of every k, as well as in each BFS wave.
  * Correctness (Proposition 4.8) is enforced by tests against ITERTD on
  * randomized inputs.
  */
object PropBounds {

  private final class NodeState(val sD: Long, var cnt: Long, var biased: Boolean)

  def run(
      counter: PatternCounter,
      alpha: Double,
      tauS: Long,
      kMin: Int,
      kMax: Int,
      budget: Budget = Budget.unlimited,
  ): DetectionResult = {
    require(kMin >= 1 && kMax >= kMin && kMax <= counter.datasetSize, s"bad range [$kMin,$kMax]")
    require(tauS >= 1, s"τ_s must be at least 1, got $tauS")
    val bound = ProportionalLowerBound(alpha, counter.datasetSize)

    var res = SortedMap.empty[Int, Set[Pattern]]
    var examined = 0L
    var timedOut = false

    // Every visited node with s_D ≥ τ_s, with its live top-k count.
    val visited = mutable.LinkedHashMap.empty[Pattern, NodeState]
    // Nodes whose search-tree children have been generated.
    val expanded = mutable.HashSet.empty[Pattern]
    // Currently biased visited nodes, split into Res and DRes.
    val biased = new MostGeneral
    // The paper's K: k̃ → candidate patterns (lazily verified on arrival).
    val kBuckets = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Pattern]]

    def scheduleKTilde(p: Pattern, st: NodeState): Unit = {
      val kt = bound.kTilde(st.cnt, st.sD)
      if (kt <= kMax) kBuckets.getOrElseUpdate(kt, mutable.ArrayBuffer.empty) += p
    }

    /** BFS below `frontier0` at position k, recording node states and
      * collecting the biased nodes found into `entered`.
      */
    def explore(frontier0: Seq[Pattern], k: Int, entered: mutable.ArrayBuffer[Pattern]): Unit = {
      if (frontier0.isEmpty) return
      val (ex, to) = TopDownSearch.bfs(counter, bound, tauS, k, frontier0, budget) {
        case TopDownSearch.Biased(p, sD, cnt) =>
          visited(p) = new NodeState(sD, cnt, biased = true)
          entered += p
        case TopDownSearch.Open(p, sD, cnt) =>
          val st = new NodeState(sD, cnt, biased = false)
          visited(p) = st
          expanded += p
          scheduleKTilde(p, st)
        case _ => ()
      }
      examined += ex
      timedOut ||= to
    }

    var k = kMin
    while (k <= kMax && !timedOut) {
      val left = mutable.ArrayBuffer.empty[Pattern]
      val entered = mutable.ArrayBuffer.empty[Pattern]
      if (budget.expired) timedOut = true
      else if (k == kMin) explore(Pattern.root(counter.width).searchTreeChildren(counter.domainSizes), k, entered)
      else {
        val newRow = counter.rankedRow(k)

        // 1. Patterns the new tuple satisfies: bump counts; biased ones may
        //    recover (and then their cut subtree must be explored).
        val recovered = mutable.ArrayBuffer.empty[Pattern]
        for ((p, st) <- visited if p.matches(newRow)) {
          st.cnt += 1
          if (st.biased && !bound.biased(st.cnt, st.sD, k)) {
            st.biased = false
            left += p
            scheduleKTilde(p, st)
            if (!expanded.contains(p)) {
              expanded += p
              recovered += p
            }
          }
        }
        explore(recovered.toSeq.flatMap(_.searchTreeChildren(counter.domainSizes)), k, entered)

        // 2. Patterns reaching their k̃ this round become biased without any
        //    count change. Entries are stale-tolerant: verify with the live
        //    count; if not biased yet (count grew since scheduling),
        //    reschedule at the recomputed k̃.
        kBuckets.remove(k).foreach { bucket =>
          for (p <- bucket) {
            val st = visited(p)
            if (!st.biased) {
              if (bound.biased(st.cnt, st.sD, k)) {
                st.biased = true
                entered += p
              } else scheduleKTilde(p, st)
            }
          }
        }
      }

      if (!timedOut) {
        biased.update(left, entered)
        res += k -> biased.res
      }
      k += 1
    }
    DetectionResult(res, examined, timedOut)
  }
}
