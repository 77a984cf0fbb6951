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
  *  3. the nodes whose biased flag changed re-decide, level by level,
  *     whether they are clean and in `Res[k]`
  *     ([[TopDownSearch.Node.clean]]); a node whose clean flag flipped
  *     has its lattice children re-decided on the next level. A search
  *     decides the nodes it creates itself.
  *
  * A node that turns biased keeps its tracked subtree, so a later
  * recovery needs no new search. Both facts need thresholds that do not
  * fall as k grows; where a global `L_k` does fall ([[BiasBound.fallsAt]])
  * the engine searches afresh from a new tree. `examined` counts the
  * patterns the searches counted; the walk's count bumps count nothing.
  *
  * Invariant: every tracked node that is not biased has been expanded, so
  * every pattern with no biased sub-pattern is tracked, and the nodes in
  * `Res` are exactly `Res[k]` (Propositions 4.5 / 4.8, checked in tests
  * against ITERTD and the brute-force spec). The budget is checked at the
  * top of every k, as well as before each search wave, so a timed-out run
  * covers exactly the k it completed.
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
    new Run(counter, bound, tauS, kMin, kMax, budget).result()
  }

  /** One run's state. Its steps are methods over these fields rather than
    * local defs over local vars, which the compiler would box on the heap.
    */
  private final class Run(
      counter: PatternCounter,
      bound: BiasBound,
      tauS: Long,
      kMin: Int,
      kMax: Int,
      budget: Budget,
  ) {
    private val width = counter.width

    private var res = SortedMap.empty[Int, Set[Pattern]]
    private var examined = 0L
    private var timedOut = false

    private var tree: TopDownSearch.Tree = _
    // Res[k], changed only by inRes flips: an unchanged k shares the set.
    private var mostGeneral = Set.empty[Pattern]
    // The paper's K: due(k - kMin) holds the unbiased nodes scheduled to
    // turn biased at k; entries are verified when k is reached.
    private var due: Array[mutable.ArrayBuffer[Node]] = _
    private val touched = mutable.ArrayBuffer.empty[Node]
    private val recovered = mutable.ArrayBuffer.empty[Node]

    private def schedule(n: Node, k: Int): Unit = {
      val next = bound.nextBiasedK(n.cnt, n.sD, k + 1, kMax)
      if (next <= kMax) {
        val i = next - kMin
        if (due(i) eq null) due(i) = mutable.ArrayBuffer.empty
        due(i) += n
      }
    }

    /** Algorithm 1 at k below the never-expanded `parents`: schedules the
      * nodes it opens and returns its findings.
      */
    private def search(parents: Iterable[Node], k: Int): TopDownSearch.Found = {
      val found = tree.search(parents, k, budget)
      found.opened.foreach(schedule(_, k))
      examined += found.examined
      timedOut ||= found.timedOut
      found
    }

    /** Bumps the count of every node below `n` that `row` satisfies;
      * collects the biased ones that recover into `touched`, and those of
      * them never expanded into `recovered`.
      */
    private def walk(n: Node, row: Array[Int], k: Int): Unit = {
      val base = tree.offset(n.maxIdx + 1)
      var a = n.maxIdx + 1
      while (a < width) {
        val c = n.children(tree.offset(a) - base + row(a))
        if (c ne null) {
          c.cnt += 1
          if (c.biased && !bound.biased(c.cnt, c.sD, k)) {
            c.biased = false
            touched += c
            schedule(c, k)
            if (c.children eq null) recovered += c
          }
          if (c.children ne null) walk(c, row, k)
        }
        a += 1
      }
    }

    /** Re-decides `clean` and `inRes` of the `touched` nodes level by
      * level, after all their parents; a node whose `clean` flips adds the
      * lattice children it can change to the next level: when it turns
      * clean, those reached through clean nodes, else those clean or in `Res`.
      *
      * The nodes a search creates are not `touched`: the search decides
      * their clean flags itself. A fresh search from the root decides them
      * level by level, as this would, and its most general nodes enter
      * `Res`. A search resumed below a recovered node creates its
      * super-patterns only, which the search finds unclean, since the
      * node is not clean yet; the node's clean flip queues them level by
      * level.
      */
    private def settle(): Unit = {
      val levels = Array.fill(width + 1)(mutable.ArrayBuffer.empty[Node])
      touched.foreach(n => levels(n.attrs.length) += n)
      for (l <- 1 to width; n <- levels(l)) {
        val parentsClean = tree.parentsClean(n)
        if (n.inRes != (n.biased && parentsClean)) {
          n.inRes = !n.inRes
          mostGeneral = if (n.inRes) mostGeneral + n.p else mostGeneral - n.p
        }
        if (n.clean != (!n.biased && parentsClean)) {
          n.clean = !n.clean
          tree.foreachLatticeChild(n, throughClean = n.clean) { c =>
            if (n.clean || c.clean || c.inRes) levels(l + 1) += c
          }
        }
      }
    }

    def result(): DetectionResult = {
      var k = kMin
      while (k <= kMax && !timedOut) {
        touched.clear()
        recovered.clear()
        if (budget.expired) timedOut = true
        else if (k == kMin || bound.fallsAt(k)) {
          tree = new TopDownSearch.Tree(counter, bound, tauS)
          due = new Array(kMax - kMin + 1)
          val found = search(Seq(tree.root), k)
          found.mostGeneral.foreach(_.inRes = true)
          mostGeneral = found.mostGeneral.iterator.map(_.p).toSet
        } else {
          walk(tree.root, counter.rankedRow(k), k)
          search(recovered, k)
          val bucket = due(k - kMin)
          due(k - kMin) = null
          if (bucket ne null) {
            var i = 0
            while (i < bucket.length) {
              val n = bucket(i)
              if (bound.biased(n.cnt, n.sD, k)) {
                n.biased = true
                touched += n
              } else schedule(n, k)
              i += 1
            }
          }
        }
        if (!timedOut) {
          settle()
          res += k -> mostGeneral
        }
        k += 1
      }
      DetectionResult(res, examined, timedOut)
    }
  }
}
