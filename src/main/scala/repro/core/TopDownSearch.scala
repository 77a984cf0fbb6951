package repro.core

import scala.collection.mutable

/** Algorithm 1 (top-down search) and its level-batched BFS engine.
  *
  * The engine traverses the search tree of the pattern graph
  * (Definition 4.1) wave by wave; each wave is counted with a single
  * [[PatternCounter.countBatch]] call on an indexed frontier, in which
  * siblings follow each other so the index reuses their parent's AND.
  *
  * Expansion rule (Algorithm 1, lines 5–10): a node is pruned when its
  * dataset size is below `τ_s` (size is anti-monotone, so the whole
  * subtree is too small), reported-and-cut when its top-k count is below
  * the bound (descendants cannot be most general), and expanded
  * otherwise.
  */
object TopDownSearch {

  /** What the BFS engine observed for a counted node. */
  sealed trait Visit { def p: Pattern }

  /** Dataset size below `τ_s`; subtree pruned. */
  final case class TooSmall(p: Pattern, sD: Long) extends Visit

  /** Biased at this k; subtree cut (not most general below). */
  final case class Biased(p: Pattern, sD: Long, cnt: Long) extends Visit

  /** Large enough and adequately represented; children expanded. */
  final case class Open(p: Pattern, sD: Long, cnt: Long) extends Visit

  /** Level-batched BFS from `frontier0`.
    *
    * @return (number of patterns counted, whether the budget expired)
    */
  def bfs(
      counter: PatternCounter,
      bound: BiasBound,
      tauS: Long,
      k: Int,
      frontier0: Seq[Pattern],
      budget: Budget,
  )(onVisit: Visit => Unit): (Long, Boolean) = {
    var frontier: IndexedSeq[Pattern] = frontier0.toIndexedSeq
    var examined = 0L
    var timedOut = false
    while (frontier.nonEmpty && !timedOut) {
      if (budget.expired) timedOut = true
      else {
        val counts = counter.countBatch(frontier, k)
        examined += frontier.size
        val next = Vector.newBuilder[Pattern]
        for (p <- frontier) {
          val (sD, cnt) = counts(p)
          if (sD < tauS) onVisit(TooSmall(p, sD))
          else if (bound.biased(cnt, sD, k)) onVisit(Biased(p, sD, cnt))
          else {
            onVisit(Open(p, sD, cnt))
            next ++= p.searchTreeChildren(counter.domainSizes)
          }
        }
        frontier = next.result()
      }
    }
    (examined, timedOut)
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
    val res  = mutable.ArrayBuffer.empty[Pattern]
    val dres = mutable.ArrayBuffer.empty[Pattern]
    val biased = new MostGeneral
    val frontier0 = Pattern.root(counter.width).searchTreeChildren(counter.domainSizes)
    val (examined, timedOut) = bfs(counter, bound, tauS, k, frontier0, budget) {
      case Biased(p, _, _) =>
        // BFS visits levels in order, so any subsuming pattern is already
        // tracked and no later one evicts p — the paper's `update` procedure.
        if (biased.add(p)) res += p else dres += p
      case _ => ()
    }
    Snapshot(res.toVector, dres.toVector, examined, timedOut)
  }
}
