package repro.core

import scala.collection.immutable.SortedMap
import scala.collection.mutable

/** GLOBALBOUNDS (Algorithm 2): Problem 3.1 on the [[Incremental]] engine. */
object GlobalBounds {
  def run(
      counter: PatternCounter,
      bound: GlobalLowerBound,
      tauS: Long,
      kMin: Int,
      kMax: Int,
      budget: Budget = Budget.unlimited,
  ): DetectionResult = Incremental.run(counter, bound, tauS, kMin, kMax, budget)
}

/** PROPBOUNDS (Algorithm 3): Problem 3.2 on the [[Incremental]] engine. */
object PropBounds {
  def run(
      counter: PatternCounter,
      alpha: Double,
      tauS: Long,
      kMin: Int,
      kMax: Int,
      budget: Budget = Budget.unlimited,
  ): DetectionResult =
    Incremental.run(counter, ProportionalLowerBound(alpha, counter.datasetSize), tauS, kMin, kMax, budget)
}

/** The incremental detector behind GLOBALBOUNDS and PROPBOUNDS
  * (Section IV-B/C). Both rest on two facts:
  *
  *  - only the patterns the new tuple `R(D)[k]` satisfies change count,
  *    each by +1 (Proposition 4.3);
  *  - any other pattern keeps its count, so the first k at which it turns
  *    biased is known in advance: `k̃` for the proportional bound, the
  *    next `L_k` step above its count for a global one
  *    ([[BiasBound.nextBiasedK]]).
  *
  * The engine keeps the search-tree nodes ([[TopDownSearch.Node]]) that
  * Algorithm 1 ([[TopDownSearch.Tree.search]]) counted with
  * `s_D ≥ τ_s`, and keeps their top-k counts live. The first k searches
  * from the root. At every later k:
  *
  *  1. the walk follows only `R(D)[k]`'s value on each attribute above a
  *     node's [[Pattern.maxIdx]], so it reaches exactly the tracked
  *     patterns the tuple satisfies, and bumps their counts. A biased node
  *     that recovers is rescheduled and, if it was never expanded, the
  *     search resumes below it;
  *  2. the nodes scheduled for k (the paper's `K`) are verified against
  *     their live counts: each turns biased, or is rescheduled at the next
  *     k its grown count allows;
  *  3. the nodes that left or entered the biased set are handed to
  *     [[MostGeneral]], which keeps `Res[k]` current from that delta.
  *
  * A node that turns biased keeps its tracked subtree, so a later
  * recovery needs no new search. Both facts need thresholds that do not
  * fall as k grows; where a global `L_k` does fall ([[BiasBound.fallsAt]])
  * the engine searches afresh from the root. `examined` counts the
  * patterns the searches counted; the walk's count bumps read one row and
  * count nothing.
  *
  * Invariant: every tracked node that is not biased has been expanded, so
  * every most general biased pattern is tracked, and the most general
  * biased nodes are exactly `Res[k]` (Propositions 4.5 / 4.8, checked in
  * tests against ITERTD and the brute-force spec). The budget is checked
  * at the top of every k, as well as before each search wave, so a
  * timed-out run covers exactly the k it completed.
  */
private[core] object Incremental {
  import TopDownSearch.Node

  def run(
      counter: PatternCounter,
      bound: BiasBound,
      tauS: Long,
      kMin: Int,
      kMax: Int,
      budget: Budget,
  ): DetectionResult = {
    TopDownSearch.requireValid(counter, tauS, kMin, kMax)
    val width = counter.width
    val tree = new TopDownSearch.Tree(counter, bound, tauS)
    val offset = tree.offset

    var res = SortedMap.empty[Int, Set[Pattern]]
    var examined = 0L
    var timedOut = false

    var root: Node = null
    var biasedSet: MostGeneral = null
    // The paper's K: due(k - kMin) holds the unbiased nodes scheduled to
    // turn biased at k; entries are verified when k is reached.
    var due: Array[mutable.ArrayBuffer[Node]] = null

    def schedule(n: Node, k: Int): Unit = {
      val next = bound.nextBiasedK(n.cnt, n.sD, k + 1, kMax)
      if (next <= kMax) {
        val i = next - kMin
        if (due(i) eq null) due(i) = mutable.ArrayBuffer.empty
        due(i) += n
      }
    }

    /** Algorithm 1 at k below the never-expanded `parents`: schedules the
      * nodes it opens and collects the biased ones into `entered`.
      */
    def search(parents: Iterable[Node], k: Int, entered: mutable.ArrayBuffer[Pattern]): Unit = {
      val found = tree.search(parents, k, budget)
      found.opened.foreach(schedule(_, k))
      found.biased.foreach(entered += _.p)
      examined += found.examined
      timedOut ||= found.timedOut
    }

    /** Bumps the count of every node below `n` that `row` satisfies;
      * collects the biased ones that recover into `left`, and those of
      * them never expanded into `recovered`.
      */
    def walk(
        n: Node,
        row: Array[Int],
        k: Int,
        left: mutable.ArrayBuffer[Pattern],
        recovered: mutable.ArrayBuffer[Node],
    ): Unit = {
      val base = offset(n.maxIdx + 1)
      var a = n.maxIdx + 1
      while (a < width) {
        val c = n.children(offset(a) - base + row(a))
        if (c ne null) {
          c.cnt += 1
          if (c.biased && !bound.biased(c.cnt, c.sD, k)) {
            c.biased = false
            left += c.p
            schedule(c, k)
            if (c.children eq null) recovered += c
          }
          if (c.children ne null) walk(c, row, k, left, recovered)
        }
        a += 1
      }
    }

    var k = kMin
    while (k <= kMax && !timedOut) {
      val left = mutable.ArrayBuffer.empty[Pattern]
      val entered = mutable.ArrayBuffer.empty[Pattern]
      if (budget.expired) timedOut = true
      else if (k == kMin || bound.fallsAt(k)) {
        root = tree.root()
        biasedSet = new MostGeneral
        due = new Array(kMax - kMin + 1)
        search(Seq(root), k, entered)
      } else {
        val recovered = mutable.ArrayBuffer.empty[Node]
        walk(root, counter.rankedRow(k), k, left, recovered)
        search(recovered, k, entered)
        val bucket = due(k - kMin)
        due(k - kMin) = null
        if (bucket ne null) for (n <- bucket) {
          if (bound.biased(n.cnt, n.sD, k)) {
            n.biased = true
            entered += n.p
          } else schedule(n, k)
        }
      }
      if (!timedOut) {
        biasedSet.update(left, entered)
        res += k -> biasedSet.res
      }
      k += 1
    }
    DetectionResult(res, examined, timedOut)
  }
}
