package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Algorithm 1 (top-down search): the one traversal of the search tree
  * (Definition 4.1; the pattern graph of Asudeh, Jin & Jagadish, ICDE
  * 2019). ITERTD runs it from the root of one tree at every k, the
  * incremental engine resumes it below stored nodes, and the divergence
  * comparator runs it under a bound no count falls below.
  *
  * The search goes wave by wave: a wave is the children of the nodes the
  * last one opened, counted with a single [[PatternCounter.countWave]]
  * call that names the wave by its parents, so the index counts each
  * child from its parent's AND and no child slot gets a [[Pattern]]; a
  * node builds one only when a caller asks for it. A node keeps its
  * children's s_D,
  * so a search that reaches it again at another k (ITERTD keeps one tree
  * per run) counts only their top-k.
  *
  * Expansion rule (Algorithm 1, lines 5–10): a node is pruned when its
  * dataset size is below `τ_s` (size is anti-monotone, so the whole
  * subtree is too small), reported-and-cut when its top-k count is below
  * the bound (descendants cannot be most general), and opened otherwise.
  * `Res[k]` (Props. 4.5 / 4.8) is decided on the tree: a biased node is
  * most general iff all its immediate parents are clean ([[Node.clean]]).
  * Each node keeps edges to its immediate parents ([[Node.from]] and a
  * memo of the others), so the search decides every node it reaches in
  * the wave that reaches it, and a search from the root returns `Res[k]`.
  */
object TopDownSearch {

  /** A counted pattern with `s_D ≥ τ_s` over `width` attributes: its
    * dataset size, its top-k count at the last k that counted it (kept
    * live by the incremental engine), whether it is biased, and, once
    * expanded, its children. `attrs` / `vals` are its constrained
    * attributes, ascending, and their values, unboxed for the counter and
    * the tree's lookups. `from` is its search-tree parent, the pattern
    * with its last constraint dropped (null at the root).
    */
  private[repro] final class Node private (
      val sD: Long,
      var cnt: Long,
      val attrs: Array[Int],
      val vals: Array[Int],
      val from: Node,
      width: Int,
  ) extends PatternCounter.Parent {

    /** The root of a tree over `width` attributes, with s_D `sD`. */
    def this(width: Int, sD: Long) = this(sD, 0L, Array.emptyIntArray, Array.emptyIntArray, null, width)

    /** The [[Pattern]], built on first use from `from`'s: only the nodes
      * a caller reports (`Res`, the divergence comparator's groups) and
      * their search-tree ancestors get one.
      */
    lazy val p: Pattern =
      if (from eq null) Pattern.root(width) else Pattern(from.p.vals.updated(maxIdx, vals(vals.length - 1)))

    /** The last constrained attribute ([[Pattern.maxIdx]]), or -1 at the root. */
    val maxIdx: Int = if (attrs.length == 0) -1 else attrs(attrs.length - 1)

    /** The child with attribute `a` (above [[maxIdx]]) set to `v`. */
    def child(a: Int, v: Int, sD: Long, cnt: Long): Node = new Node(sD, cnt, attrs :+ a, vals :+ v, this, width)

    /** `ups(j)`: the immediate parent that drops constraint `j`, for each
      * `j` below the last (dropping the last gives `from`), once the tree
      * has been found to hold it ([[Tree.parentsClean]]); null before.
      */
    private[TopDownSearch] val ups: Array[Node] = new Array[Node](math.max(attrs.length - 1, 0))

    var biased: Boolean = false

    /** Each child's s_D, or [[PatternCounter.Unknown]] before it is first
      * counted. This array and the one below are null until the node is
      * expanded; then slot `offset(a) - offset(maxIdx + 1) + v` of each is
      * the child with attribute `a` set to `v`, in
      * [[Pattern.searchTreeChildren]]'s order. s_D does not depend on k,
      * so a search that reaches this node again sends these to the
      * counter, which then counts only top-k.
      */
    var childSD: Array[Int] = _

    /** Each child's node, or null when it has `s_D < τ_s` or was never
      * counted.
      */
    var children: Array[Node] = _

    /** The tree's stamp when a search last reached this node
      * ([[Tree.search]]); `clean` holds only while it is the tree's.
      */
    private[TopDownSearch] var stamp: Int = 0

    /** Not biased, and every immediate parent (one constraint dropped) a
      * clean node, the root being clean: no sub-pattern is biased. Set by
      * each search that reaches the node, and kept live by the incremental
      * engine ([[Tree.isClean]]).
      */
    var clean: Boolean = maxIdx < 0
    var inRes: Boolean = false // biased, every immediate parent clean; incremental engine only
  }

  /** One search's findings: the nodes it opened (and expanded), and the
    * biased nodes whose immediate parents are all clean, both in visit
    * order. From the root, the latter are `Res[k]`.
    */
  private[repro] final case class Found(
      opened: collection.IndexedSeq[Node],
      mostGeneral: collection.IndexedSeq[Node],
      examined: Long,
      timedOut: Boolean,
  )

  /** The search tree of one schema, searched under `bound` and `τ_s`. */
  private[repro] final class Tree(counter: PatternCounter, bound: BiasBound, tauS: Long) {
    private val width = counter.width
    private val domainSizes = counter.domainSizes.toArray

    /** `offset(a)`: number of (attribute, value) pairs on attributes below `a`. */
    val offset: Array[Int] = domainSizes.scanLeft(0)(_ + _).toArray

    /** The root; it is never counted, never biased and always clean. */
    val root: Node = new Node(width, counter.datasetSize)

    /** The number of searches from the root so far. A node that the last
      * one did not reach has an older stamp and is not clean: ITERTD
      * reuses nodes across k, and a flag kept from an earlier k would make
      * a node cut at this k look clean. The incremental engine searches
      * one tree from the root once, so its stamps all agree.
      */
    private var stamp = 0

    /** Whether `n` is clean at this tree's stamp. */
    private def isClean(n: Node): Boolean = n.clean && n.stamp == stamp

    /** `n`'s child with attribute `a` set to `v`, or null (also when `n` is null). */
    private def child(n: Node, a: Int, v: Int): Node =
      if ((n eq null) || (n.children eq null)) null else n.children(offset(a) - offset(n.maxIdx + 1) + v)

    /** `n`'s immediate parent that drops its `j`-th constraint, or null
      * where the tree holds none. Below the last constraint that parent is
      * the child, on `n`'s last constraint, of the parent of `n.from` that
      * drops the same one, so with `n.from`'s edges known it is one step.
      * A parent found is kept in `n.ups`; a missing one is looked up again
      * next time, since a later search may create it.
      */
    private def up(n: Node, j: Int): Node =
      if (j == n.attrs.length - 1) n.from
      else {
        val q = n.ups(j)
        if (q ne null) q else findUp(n, j)
      }

    /** [[up]] where `n.ups(j)` is null; kept out of line, so that [[up]] inlines. */
    private def findUp(n: Node, j: Int): Node = {
      val last = n.attrs.length - 1
      val q = child(up(n.from, j), n.attrs(last), n.vals(last))
      if (q ne null) n.ups(j) = q
      q
    }

    /** The node `from` leads to along `n`'s constraints from the `i`-th on:
      * null where the tree has none or, with `throughClean`, an unclean node.
      */
    private def follow(from: Node, n: Node, i: Int, throughClean: Boolean): Node = {
      var q = from
      var j = i
      while (j < n.attrs.length && (q ne null)) {
        if (throughClean && !isClean(q)) return null
        q = child(q, n.attrs(j), n.vals(j))
        j += 1
      }
      q
    }

    /** Whether every immediate parent of `n` is a clean node: `n.from`
      * first, then the others through their edges ([[up]]), O(level) steps
      * once those are known. The rule of `Res[k]` for both engines.
      */
    def parentsClean(n: Node): Boolean = {
      val last = n.attrs.length - 1
      if (last >= 0 && !isClean(n.from)) return false
      var j = 0
      while (j < last) {
        val q = up(n, j)
        if ((q eq null) || !isClean(q)) return false
        j += 1
      }
      true
    }

    /** Calls `f` on every node with `n`'s constraints and one more, each
      * found by a walk from the root. With `throughClean`, skips one whose
      * walk meets an unclean node holding the added constraint: a
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
      val slots = offset(width) - offset(n.maxIdx + 1)
      n.childSD = Array.fill(slots)(PatternCounter.Unknown)
      n.children = new Array[Node](slots)
    }

    /** Algorithm 1 at `k` below `parents`. Expands every parent and every
      * node it opens, unless a search at an earlier k expanded it already.
      * The `sD` / `topK` arrays of a wave's one [[PatternCounter.countWave]]
      * call line up with its parents' slots, the s_D of children counted
      * before passed in as known. Every counted s_D is kept in the
      * parent's `childSD`. A child with `s_D ≥ τ_s` is created from its
      * parent and its slot's (attribute, value) and written into that
      * slot, or, if a search at an earlier k put it there, gets its count
      * and biased flag overwritten. A wave with nothing to count ends the
      * search without a [[PatternCounter.countWave]] call; the budget is
      * checked before each wave that has patterns to count.
      *
      * Each node reached takes the tree's stamp and is decided in the
      * wave by [[parentsClean]]: clean if it is not biased, most general
      * if it is. A search from `root` first advances the stamp; its waves
      * are the tree's levels, so every immediate parent of a node was
      * decided in the wave before, and its most general nodes are
      * `Res[k]`. A search resumed below stored nodes keeps the stamp.
      */
    def search(parents: Iterable[Node], k: Int, budget: Budget): Found = {
      val opened = mutable.ArrayBuffer.empty[Node]
      val mostGeneral = mutable.ArrayBuffer.empty[Node]
      var examined = 0L
      var timedOut = false
      var wave = parents.toArray
      if (wave.length == 1 && (wave(0) eq root)) {
        stamp += 1
        root.stamp = stamp
      }
      while (wave.length > 0 && !timedOut) {
        var size = 0
        var p = 0
        while (p < wave.length) {
          expand(wave(p))
          size += wave(p).children.length
          p += 1
        }
        if (size == 0) wave = Array.empty
        else if (budget.expired) timedOut = true
        else {
          val sD = new Array[Int](size)
          val topK = new Array[Int](size)
          var i = 0
          p = 0
          while (p < wave.length) {
            val known = wave(p).childSD
            System.arraycopy(known, 0, sD, i, known.length)
            i += known.length
            p += 1
          }
          counter.countWave(ArraySeq.unsafeWrapArray(wave), k, sD, topK)
          examined += size
          val first = opened.length
          i = 0
          p = 0
          while (p < wave.length) {
            val parent = wave(p)
            var slot = 0
            var a = parent.maxIdx + 1
            while (a < width) {
              var v = 0
              while (v < domainSizes(a)) {
                val d = sD(i)
                parent.childSD(slot) = d
                if (d >= tauS) {
                  val cnt = topK(i)
                  var n = parent.children(slot)
                  if (n eq null) {
                    n = parent.child(a, v, d, cnt)
                    parent.children(slot) = n
                  } else n.cnt = cnt
                  n.stamp = stamp
                  n.biased = bound.biased(cnt, d, k)
                  val pc = parentsClean(n)
                  n.clean = !n.biased && pc
                  if (!n.biased) opened += n
                  else if (pc) mostGeneral += n
                }
                v += 1
                slot += 1
                i += 1
              }
              a += 1
            }
            p += 1
          }
          wave = new Array[Node](opened.length - first)
          i = 0
          while (i < wave.length) {
            wave(i) = opened(first + i)
            i += 1
          }
        }
      }
      Found(opened, mostGeneral, examined, timedOut)
    }
  }

  /** Rejects the inputs no search accepts: `τ_s < 1`, and a k range
    * that is empty or leaves `[1, |D|]`.
    */
  private[repro] def requireValid(counter: PatternCounter, tauS: Long, kMin: Int, kMax: Int): Unit = {
    require(kMin >= 1 && kMax >= kMin && kMax <= counter.datasetSize, s"bad range [$kMin,$kMax]")
    require(tauS >= 1, s"τ_s must be at least 1, got $tauS")
  }
}
