package repro.core

import scala.collection.immutable.ArraySeq

/** Algorithm 1 (top-down search): the one traversal of the search tree
  * (Definition 4.1; the pattern graph of Asudeh, Jin & Jagadish, ICDE
  * 2019). ITERTD runs it from the root of one tree at every k, the
  * incremental engine resumes it below stored nodes, and the divergence
  * comparator runs it under a bound no count falls below.
  *
  * The search goes wave by wave: a wave is the children of the nodes the
  * last one opened, counted with a single [[PatternCounter.countInto]]
  * call in which siblings follow each other, so the index reuses their
  * parent's AND. A node keeps its children's s_D, so a search that
  * reaches it again at another k (ITERTD keeps one tree per run) counts
  * only their top-k.
  *
  * Expansion rule (Algorithm 1, lines 5–10): a node is pruned when its
  * dataset size is below `τ_s` (size is anti-monotone, so the whole
  * subtree is too small), reported-and-cut when its top-k count is below
  * the bound (descendants cannot be most general), and opened otherwise.
  */
object TopDownSearch {

  /** A counted pattern with `s_D ≥ τ_s`: its dataset size, its top-k
    * count at the last k that counted it (kept live by the incremental
    * engine), whether it is biased, and, once expanded, its children.
    */
  private[repro] final class Node(val p: Pattern, val sD: Long, var cnt: Long) {
    val maxIdx: Int = p.maxIdx
    var biased: Boolean = false

    /** The children's patterns. This array and the two below are null
      * until the node is expanded; then slot
      * `offset(a) - offset(maxIdx + 1) + v` of each is the child with
      * attribute `a` set to `v`, in [[Pattern.searchTreeChildren]]'s order.
      */
    var childPatterns: Array[Pattern] = _

    /** Each child's s_D, or [[PatternCounter.Unknown]] before it is first
      * counted. s_D does not depend on k, so a search that reaches this
      * node again sends these to the counter, which then counts only top-k.
      */
    var childSD: Array[Int] = _

    /** Each child's node, or null when it has `s_D < τ_s` or was never
      * counted.
      */
    var children: Array[Node] = _
  }

  /** One search's findings, both in visit order: the biased nodes, whose
    * subtrees were cut, and the nodes it opened (and expanded).
    */
  private[repro] final case class Found(
      biased: Vector[Node],
      opened: Vector[Node],
      examined: Long,
      timedOut: Boolean,
  )

  /** The search tree of one schema, searched under `bound` and `τ_s`. */
  private[repro] final class Tree(counter: PatternCounter, bound: BiasBound, tauS: Long) {
    private val width = counter.width
    private val domainSizes = counter.domainSizes

    /** `offset(a)`: number of (attribute, value) pairs on attributes below `a`. */
    val offset: Array[Int] = domainSizes.scanLeft(0)(_ + _).toArray

    /** A fresh root; it is never counted and never biased. */
    def root(): Node = new Node(Pattern.root(width), counter.datasetSize, 0L)

    private def expand(n: Node): Unit = if (n.children eq null) {
      n.childPatterns = n.p.searchTreeChildren(domainSizes).toArray
      n.childSD = Array.fill(n.childPatterns.length)(PatternCounter.Unknown)
      n.children = new Array[Node](n.childPatterns.length)
    }

    /** Algorithm 1 at `k` below `parents`. Expands every parent and every
      * node it opens, unless a search at an earlier k expanded it already.
      * A wave lists each parent's child patterns in slot order, and the
      * `sD` / `topK` arrays of its one [[PatternCounter.countInto]] call
      * line up with those slots, the s_D of children counted before passed
      * in as known. Every counted s_D is kept in the parent's `childSD`. A
      * child with `s_D ≥ τ_s` is written into its parent's slot, or, if a
      * search at an earlier k put it there, gets its count and biased flag
      * overwritten. A wave with nothing to count ends the search without a
      * [[PatternCounter.countInto]] call; the budget is checked before
      * each wave that has patterns to count.
      */
    def search(parents: Iterable[Node], k: Int, budget: Budget): Found = {
      val biased = Vector.newBuilder[Node]
      val opened = Vector.newBuilder[Node]
      var examined = 0L
      var timedOut = false
      var wave = parents.toVector
      while (wave.nonEmpty && !timedOut) {
        wave.foreach(expand)
        val size = wave.foldLeft(0)(_ + _.children.length)
        if (size == 0) wave = Vector.empty
        else if (budget.expired) timedOut = true
        else {
          val patterns = new Array[Pattern](size)
          val sD = new Array[Int](size)
          val topK = new Array[Int](size)
          var i = 0
          for (parent <- wave) {
            val slots = parent.children.length
            System.arraycopy(parent.childPatterns, 0, patterns, i, slots)
            System.arraycopy(parent.childSD, 0, sD, i, slots)
            i += slots
          }
          counter.countInto(ArraySeq.unsafeWrapArray(patterns), k, sD, topK)
          examined += size
          val next = Vector.newBuilder[Node]
          i = 0
          for (parent <- wave) {
            var slot = 0
            while (slot < parent.children.length) {
              val d = sD(i)
              parent.childSD(slot) = d
              if (d >= tauS) {
                val cnt = topK(i)
                var n = parent.children(slot)
                if (n eq null) {
                  n = new Node(patterns(i), d, cnt)
                  parent.children(slot) = n
                } else n.cnt = cnt
                n.biased = bound.biased(cnt, d, k)
                if (n.biased) biased += n
                else {
                  opened += n
                  next += n
                }
              }
              slot += 1
              i += 1
            }
          }
          wave = next.result()
        }
      }
      Found(biased.result(), opened.result(), examined, timedOut)
    }
  }

  /** Result of one single-k top-down search: `res` is the set of most
    * general biased patterns, `dres` the biased patterns reached during
    * the search that are subsumed by a member of `res` (the paper's
    * `DRes`), both in visit order.
    */
  final case class Snapshot(
      res: Vector[Pattern],
      dres: Vector[Pattern],
      examined: Long,
      timedOut: Boolean,
  )

  /** Algorithm 1 for a single k, starting from the root's children of a
    * fresh tree.
    *
    * @throws IllegalArgumentException if `tauS < 1` or `k` is outside
    *         `[1, |D|]`
    */
  def singleK(
      counter: PatternCounter,
      bound: BiasBound,
      tauS: Long,
      k: Int,
      budget: Budget = Budget.unlimited,
  ): Snapshot = {
    requireValid(counter, tauS, k, k)
    val tree = new Tree(counter, bound, tauS)
    snapshot(tree.search(Seq(tree.root()), k, budget))
  }

  /** Splits a search from the root into `Res` and `DRes`. */
  private[core] def snapshot(found: Found): Snapshot = {
    val biased = found.biased.map(_.p)
    val mostGeneral = new MostGeneral
    mostGeneral.update(Nil, biased)
    val (res, dres) = biased.partition(mostGeneral.res.contains)
    Snapshot(res, dres, found.examined, found.timedOut)
  }

  /** Rejects the inputs no search accepts: `τ_s < 1`, and a k range
    * that is empty or leaves `[1, |D|]`.
    */
  private[repro] def requireValid(counter: PatternCounter, tauS: Long, kMin: Int, kMax: Int): Unit = {
    require(kMin >= 1 && kMax >= kMin && kMax <= counter.datasetSize, s"bad range [$kMin,$kMax]")
    require(tauS >= 1, s"τ_s must be at least 1, got $tauS")
  }
}
