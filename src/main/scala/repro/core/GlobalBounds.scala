package repro.core

import scala.collection.immutable.SortedMap
import scala.collection.mutable

/** GLOBALBOUNDS (Algorithm 2) — incremental detection for Problem 3.1.
  *
  * Key facts exploited (Section IV-B): when `L_k` is unchanged from the
  * previous position, a pattern's top-k count can only change if the
  * newly admitted tuple `R(D)[k]` satisfies it (and then only by +1), and
  * a pattern that was adequately represented can never become biased
  * again. So:
  *
  *  - the algorithm keeps the set `B` of all *visited* biased patterns
  *    (the union of the paper's `Res` and `DRes`) in a [[MostGeneral]];
  *  - per k it reads `R(D)[k]` once and re-counts only the members of `B`
  *    it satisfies; members that cross the bound leave `B` and the search
  *    resumes from their search-tree children (the subtree was cut when
  *    they became biased — this is `searchFromNode`);
  *  - `Res[k]` is kept current from that delta alone: the patterns that
  *    left `B` and the biased ones the resumed search found. Only members
  *    a leaving `Res` member subsumed, and the new patterns, are probed;
  *    while `B` is unchanged successive k share one `Res` snapshot;
  *  - when `L_k` increases, a fresh top-down search replaces `B`
  *    (Algorithm 2, line 4).
  *
  * The budget is checked at the top of every k, as well as in each BFS
  * wave, so a timed-out run covers exactly the k it completed.
  *
  * Correctness (Proposition 4.5) is enforced in tests by equivalence
  * with ITERTD on randomized inputs: every visited node that is
  * currently unbiased has been expanded, hence every most general biased
  * pattern is visited and tracked in `B`, and the minimal elements of
  * `B` are exactly the minimal elements of the full biased region.
  */
object GlobalBounds {

  def run(
      counter: PatternCounter,
      bound: GlobalLowerBound,
      tauS: Long,
      kMin: Int,
      kMax: Int,
      budget: Budget = Budget.unlimited,
  ): DetectionResult = {
    require(kMin >= 1 && kMax >= kMin && kMax <= counter.datasetSize, s"bad range [$kMin,$kMax]")
    require(tauS >= 1, s"τ_s must be at least 1, got $tauS")

    var res = SortedMap.empty[Int, Set[Pattern]]
    var examined = 0L
    var timedOut = false

    // All visited biased patterns (paper's Res ∪ DRes).
    var biased = new MostGeneral

    /** Algorithm-1 search below `frontier0`; returns the biased patterns found. */
    def search(frontier0: Seq[Pattern], k: Int): Seq[Pattern] = {
      val found = mutable.ArrayBuffer.empty[Pattern]
      if (frontier0.nonEmpty) {
        val (ex, to) = TopDownSearch.bfs(counter, bound, tauS, k, frontier0, budget) {
          case TopDownSearch.Biased(p, _, _) => found += p
          case _                             => ()
        }
        examined += ex
        timedOut ||= to
      }
      found.toSeq
    }

    var k = kMin
    while (k <= kMax && !timedOut) {
      if (budget.expired) timedOut = true
      else if (k == kMin || bound.lk(k) != bound.lk(k - 1)) {
        // First k, or the bound changed: incremental reasoning does not
        // apply; a full search from the root replaces `B`.
        biased = new MostGeneral
        biased.update(Nil, search(Pattern.root(counter.width).searchTreeChildren(counter.domainSizes), k))
      } else {
        // Only patterns satisfied by the new tuple R(D)[k] can change.
        val row = counter.rankedRow(k)
        val affected = biased.members.filter(_.matches(row)).toSeq
        if (affected.nonEmpty) {
          val counts = counter.countBatch(affected, k)
          examined += affected.size
          val flipped = affected.filter { p =>
            val (sD, cnt) = counts(p)
            !bound.biased(cnt, sD, k)
          }
          if (flipped.nonEmpty) {
            // Resume the cut subtrees below the patterns that crossed the bound.
            val found = search(flipped.flatMap(_.searchTreeChildren(counter.domainSizes)), k)
            biased.update(flipped, found)
          }
        }
      }
      if (!timedOut) res += k -> biased.res
      k += 1
    }
    DetectionResult(res, examined, timedOut)
  }
}
