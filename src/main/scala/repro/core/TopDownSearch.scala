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
  * node builds one only when a caller asks for it. Each expanded node
  * lists the child slots that can reach `τ_s` ([[Node.slots]]), and only
  * those are counted: first the candidates that no lattice parent has
  * ruled out (Apriori-gen), then the children with `s_D ≥ τ_s`, so a
  * search that reaches the node again at another k (ITERTD keeps one
  * tree per run) counts only their top-k.
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
    * expanded, its children and the list of its child slots that can
    * reach `τ_s`. `attrs` / `vals` are its constrained
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

    /** Each child's node, or null when it has `s_D < τ_s` or was never
      * counted. Null until the node is expanded; then slot
      * `offset(a) - offset(maxIdx + 1) + v` is the child with attribute
      * `a` set to `v`, in [[Pattern.searchTreeChildren]]'s order.
      */
    var children: Array[Node] = _

    /** The slots a search counts, ascending ([[PatternCounter.Parent.slots]]);
      * null until the node is expanded. On expansion they are the
      * candidates, the slots no lattice parent the tree holds has found
      * too small (Apriori-gen, `Tree.candidates`); once counted, the slots whose child has
      * `s_D ≥ τ_s`, each holding that child. s_D does not depend on k, so
      * a search that reaches this node again counts only their top-k.
      */
    var slots: Array[Int] = _

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

  /** The search tree of one schema, searched under `bound` and `τ_s`.
    * Its nodes' slot lists ([[Node.slots]]) are built by [[candidates]]
    * when a node is expanded and shrunk by [[search]] after its count.
    */
  private[repro] final class Tree(counter: PatternCounter, bound: BiasBound, tauS: Long) {
    private val width = counter.width
    private val domainSizes = counter.domainSizes.toArray

    /** `offset(a)`: number of (attribute, value) pairs on attributes below `a`. */
    val offset: Array[Int] = domainSizes.scanLeft(0)(_ + _).toArray

    /** `attrOf(g)` / `valOf(g)`: the attribute and value of pair `g = offset(a) + v`. */
    private val attrOf = new Array[Int](offset(width))
    private val valOf = new Array[Int](offset(width))
    for (a <- 0 until width; v <- 0 until domainSizes(a)) {
      attrOf(offset(a) + v) = a
      valOf(offset(a) + v) = v
    }

    /** [[candidates]]' scratch list, one entry per (attribute, value) pair. */
    private val buffer = new Array[Int](offset(width))

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

    /** Expands `n` unless a search expanded it before: its children array,
      * and its candidate slots as its list.
      */
    private def expand(n: Node): Unit = if (n.children eq null) {
      val all = offset(width) - offset(n.maxIdx + 1)
      n.children = new Array[Node](all)
      n.slots = if (n.from eq null) Array.range(0, all) else candidates(n)
    }

    /** Apriori-gen (Agrawal & Srikant, VLDB 1994): the slots of `n` whose
      * child no lattice parent the tree holds has found too small. The
      * child on (a, v) has, besides `n`, one lattice parent per constraint
      * `j` of `n`: the child on (a, v) of the parent that drops `j`,
      * `from` for the last constraint and [[up]] for the others. Where
      * that node is expanded, its list holds every slot whose child can
      * have `s_D ≥ τ_s` (a candidate list before its count, a superset),
      * and s_D is anti-monotone, so `n` keeps only the slots every such
      * list holds: a merge of sorted lists in [[buffer]], starting from
      * `from`'s slots above `n`'s last attribute.
      */
    private def candidates(n: Node): Array[Int] = {
      val fs = n.from.slots
      val shift = offset(n.maxIdx + 1) - offset(n.from.maxIdx + 1) // n's slot s is from's s + shift
      var j = java.util.Arrays.binarySearch(fs, shift)
      if (j < 0) j = -j - 1
      var len = 0
      while (j < fs.length) {
        buffer(len) = fs(j) - shift
        len += 1
        j += 1
      }
      // The other parents end on n's last attribute, as n does, so their slots are n's.
      val last = n.attrs.length - 1
      var c = 0
      while (c < last && len > 0) {
        val q = up(n, c)
        if ((q ne null) && (q.slots ne null)) len = intersect(q.slots, len)
        c += 1
      }
      java.util.Arrays.copyOf(buffer, len)
    }

    /** Keeps the first `len` entries of [[buffer]] that `qs` holds too, in
      * place; returns their number. Both are ascending.
      */
    private def intersect(qs: Array[Int], len: Int): Int = {
      var kept = 0
      var i = 0
      var j = 0
      while (i < len && j < qs.length) {
        val s = buffer(i)
        if (s < qs(j)) i += 1
        else if (s > qs(j)) j += 1
        else {
          buffer(kept) = s
          kept += 1
          i += 1
          j += 1
        }
      }
      kept
    }

    /** Algorithm 1 at `k` below `parents`. Expands every parent and every
      * node it opens, unless a search at an earlier k expanded it already
      * ([[expand]]). A wave's one [[PatternCounter.countWave]] call counts
      * only the slots its parents list, its `sD` / `topK` arrays lining up
      * with them; a listed slot that holds a child, counted at an earlier
      * k, passes that child's s_D in as known. A child with `s_D ≥ τ_s` is
      * created from its parent and its slot's (attribute, value) and
      * written into that slot, or, if a search at an earlier k put it
      * there, gets its count and biased flag overwritten. After its count a
      * parent's list keeps only those slots; it is rebuilt only if a slot
      * was dropped. `examined` adds every slot of every wave, listed or
      * not, as a search that counts every child would. A wave with nothing
      * listed makes no [[PatternCounter.countWave]] call, and one with no
      * slots ends the search; the budget is checked before each wave that
      * has slots.
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
        var listed = 0
        var p = 0
        while (p < wave.length) {
          expand(wave(p))
          size += wave(p).children.length
          listed += wave(p).slots.length
          p += 1
        }
        if (size == 0) wave = Array.empty
        else if (budget.expired) timedOut = true
        else {
          val sD = new Array[Int](listed)
          val topK = new Array[Int](listed)
          var i = 0
          p = 0
          while (p < wave.length) {
            val parent = wave(p)
            val ss = parent.slots
            var j = 0
            while (j < ss.length) {
              val c = parent.children(ss(j))
              sD(i) = if (c eq null) PatternCounter.Unknown else c.sD.toInt
              i += 1
              j += 1
            }
            p += 1
          }
          if (listed > 0) counter.countWave(ArraySeq.unsafeWrapArray(wave), k, sD, topK)
          examined += size
          val firstOpened = opened.length
          i = 0
          p = 0
          while (p < wave.length) {
            val parent = wave(p)
            val ss = parent.slots
            val first = offset(parent.maxIdx + 1)
            var kept = 0
            var j = 0
            while (j < ss.length) {
              val d = sD(i)
              if (d >= tauS) {
                val s = ss(j)
                ss(kept) = s
                kept += 1
                val cnt = topK(i)
                var n = parent.children(s)
                if (n eq null) {
                  n = parent.child(attrOf(first + s), valOf(first + s), d, cnt)
                  parent.children(s) = n
                } else n.cnt = cnt
                n.stamp = stamp
                n.biased = bound.biased(cnt, d, k)
                val pc = parentsClean(n)
                n.clean = !n.biased && pc
                if (!n.biased) opened += n
                else if (pc) mostGeneral += n
              }
              i += 1
              j += 1
            }
            if (kept < ss.length) parent.slots = java.util.Arrays.copyOf(ss, kept)
            p += 1
          }
          wave = new Array[Node](opened.length - firstOpened)
          i = 0
          while (i < wave.length) {
            wave(i) = opened(firstOpened + i)
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
