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
  * `Res[k]` (Props. 4.5 / 4.8) is decided on the tree: a biased node is
  * most general iff all its immediate parents are clean ([[Node.clean]]).
  */
object TopDownSearch {

  /** A counted pattern with `s_D ≥ τ_s`: its dataset size, its top-k
    * count at the last k that counted it (kept live by the incremental
    * engine), whether it is biased, and, once expanded, its children.
    */
  private[repro] final class Node(val p: Pattern, val sD: Long, var cnt: Long, parent: Node) {
    val maxIdx: Int = p.maxIdx

    /** `p`'s constrained attributes, ascending, and their values, unboxed
      * for the tree's lookups: the search-tree parent's plus `maxIdx`.
      */
    val attrs: Array[Int] = if (parent eq null) Array.emptyIntArray else parent.attrs :+ maxIdx
    val vals: Array[Int] = if (parent eq null) Array.emptyIntArray else parent.vals :+ p.vals(maxIdx)

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

    /** Not biased, and every immediate parent (one constraint dropped) a
      * clean node, the root being clean: no sub-pattern is biased. Live in
      * the incremental engine; set only within one [[snapshot]] otherwise.
      */
    var clean: Boolean = maxIdx < 0
    var inRes: Boolean = false // biased, every immediate parent clean; incremental engine only
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

    /** The root; it is never counted, never biased and always clean. */
    val root: Node = new Node(Pattern.root(width), counter.datasetSize, 0L, null)

    /** `n`'s child with attribute `a` set to `v`, or null. */
    private def child(n: Node, a: Int, v: Int): Node =
      if (n.children eq null) null else n.children(offset(a) - offset(n.maxIdx + 1) + v)

    /** The node `from` leads to along `n`'s constraints from the `i`-th on:
      * null where the tree has none or, with `throughClean`, an unclean node.
      */
    private def follow(from: Node, n: Node, i: Int, throughClean: Boolean): Node = {
      var q = from
      var j = i
      while (j < n.attrs.length && (q ne null)) {
        if (throughClean && !q.clean) return null
        q = child(q, n.attrs(j), n.vals(j))
        j += 1
      }
      q
    }

    /** Whether every immediate parent of `n` is a clean node, each found by
      * a walk from the root that skips one constraint: O(level²) steps.
      */
    def parentsClean(n: Node): Boolean = {
      var prefix = root
      var i = 0
      while (i < n.attrs.length) {
        val q = follow(prefix, n, i + 1, throughClean = false)
        if ((q eq null) || !q.clean) return false
        prefix = child(prefix, n.attrs(i), n.vals(i))
        i += 1
      }
      true
    }

    /** Calls `f` on every node with `n`'s constraints and one more, found
      * by walks like [[parentsClean]]'s. With `throughClean`, skips one
      * whose walk meets an unclean node holding the added constraint: a
      * sub-pattern, so it can be neither clean nor most general.
      */
    def foreachLatticeChild(n: Node, throughClean: Boolean)(f: Node => Unit): Unit = {
      var prefix = root
      var i = 0
      var a = 0
      while (a < width) {
        if (i < n.attrs.length && n.attrs(i) == a) {
          prefix = child(prefix, a, n.vals(i))
          i += 1
        } else {
          var v = 0
          while (v < domainSizes(a)) {
            val q = follow(child(prefix, a, v), n, i, throughClean)
            if (q ne null) f(q)
            v += 1
          }
        }
        a += 1
      }
    }

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
                  n = new Node(patterns(i), d, cnt, parent)
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

  /** `Res` of a search of `tree` from its root, which opens nodes level
    * by level, so each is marked clean after its parents. The marks are
    * cleared again: a node a later search does not open is not clean.
    */
  private[core] def snapshot(tree: Tree, found: Found): Set[Pattern] = {
    found.opened.foreach(n => n.clean = tree.parentsClean(n))
    val res = found.biased.iterator.filter(tree.parentsClean).map(_.p).toSet
    found.opened.foreach(_.clean = false)
    res
  }

  /** Rejects the inputs no search accepts: `τ_s < 1`, and a k range
    * that is empty or leaves `[1, |D|]`.
    */
  private[repro] def requireValid(counter: PatternCounter, tauS: Long, kMin: Int, kMax: Int): Unit = {
    require(kMin >= 1 && kMax >= kMin && kMax <= counter.datasetSize, s"bad range [$kMin,$kMax]")
    require(tauS >= 1, s"τ_s must be at least 1, got $tauS")
  }
}
