package repro.core

/** Algorithm 1 (top-down search): the one traversal of the search tree
  * (Definition 4.1; the pattern graph of Asudeh, Jin & Jagadish, ICDE
  * 2019). ITERTD runs it from the root at every k ([[singleK]]), the
  * incremental engine resumes it below stored nodes, and the divergence
  * comparator runs it under a bound no count falls below.
  *
  * The search goes wave by wave: a wave is the children of the nodes the
  * last one opened, counted with a single [[PatternCounter.countBatch]]
  * call in which siblings follow each other, so the index reuses their
  * parent's AND.
  *
  * Expansion rule (Algorithm 1, lines 5–10): a node is pruned when its
  * dataset size is below `τ_s` (size is anti-monotone, so the whole
  * subtree is too small), reported-and-cut when its top-k count is below
  * the bound (descendants cannot be most general), and opened otherwise.
  */
object TopDownSearch {

  /** A counted pattern with `s_D ≥ τ_s`: its dataset size, its top-k
    * count (kept live by the incremental engine), whether it is biased,
    * and, once expanded, its children.
    */
  private[repro] final class Node(val p: Pattern, val sD: Long, var cnt: Long, var biased: Boolean) {
    val maxIdx: Int = p.maxIdx

    /** Null until expanded; then slot `offset(a) - offset(maxIdx + 1) + v`
      * holds the child with attribute `a` set to `v`, or null when that
      * child has `s_D < τ_s`. The slots follow
      * [[Pattern.searchTreeChildren]]'s order.
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
    def root(): Node = new Node(Pattern.root(width), counter.datasetSize, 0L, biased = false)

    private def expand(n: Node): Unit = n.children = new Array[Node](offset(width) - offset(n.maxIdx + 1))

    /** Algorithm 1 at `k` below `parents`, none of them expanded yet.
      * Expands every parent and every node it opens, and writes each
      * counted child with `s_D ≥ τ_s` into its parent's slot: a wave lists
      * each parent's children in slot order. A wave with nothing to count
      * ends the search without a [[PatternCounter.countBatch]] call; the
      * budget is checked before each wave that has patterns to count.
      */
    def search(parents: Iterable[Node], k: Int, budget: Budget): Found = {
      val biased = Vector.newBuilder[Node]
      val opened = Vector.newBuilder[Node]
      var examined = 0L
      var timedOut = false
      var wave = parents.toVector
      while (wave.nonEmpty && !timedOut) {
        wave.foreach(expand)
        val batch = wave.flatMap(_.p.searchTreeChildren(domainSizes))
        if (batch.isEmpty) wave = Vector.empty
        else if (budget.expired) timedOut = true
        else {
          val counts = counter.countBatch(batch, k)
          examined += batch.size
          val next = Vector.newBuilder[Node]
          var i = 0
          for (parent <- wave; slot <- parent.children.indices) {
            val p = batch(i)
            val (sD, cnt) = counts(p)
            if (sD >= tauS) {
              val n = new Node(p, sD, cnt, bound.biased(cnt, sD, k))
              parent.children(slot) = n
              if (n.biased) biased += n
              else {
                opened += n
                next += n
              }
            }
            i += 1
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

  /** Algorithm 1 for a single k, starting from the root's children. */
  def singleK(
      counter: PatternCounter,
      bound: BiasBound,
      tauS: Long,
      k: Int,
      budget: Budget = Budget.unlimited,
  ): Snapshot = {
    val tree = new Tree(counter, bound, tauS)
    val found = tree.search(Seq(tree.root()), k, budget)
    val biased = found.biased.map(_.p)
    val mostGeneral = new MostGeneral
    mostGeneral.update(Nil, biased)
    val (res, dres) = biased.partition(mostGeneral.res.contains)
    Snapshot(res, dres, found.examined, found.timedOut)
  }
}
