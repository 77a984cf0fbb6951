package repro.core

import scala.collection.immutable.SortedMap

/** Result of a detection run over a range of k.
  *
  * @param resByK   for each k, the most general biased patterns `Res[k]`
  * @param examined number of patterns counted, summed over every top-down
  *                 search of the run (the "patterns examined" metric of
  *                 Section VI-B). The incremental engine's per-k count
  *                 bumps by the new tuple read one row and count nothing
  * @param timedOut whether the run was cut short by the budget; if so
  *                 `resByK` covers only the completed prefix of the range
  */
final case class DetectionResult(
    resByK: SortedMap[Int, Set[Pattern]],
    examined: Long,
    timedOut: Boolean,
)

/** ITERTD — the baseline of Section IV-A: Algorithm 1 re-run from the
  * root for every k in `[kMin, kMax]`. Handles both problem definitions
  * through the [[BiasBound]] abstraction, exactly as the paper's baseline
  * does.
  *
  * Every k searches the whole tree again and `examined` counts every
  * pattern each search visits, as in the paper. Only s_D, which does not
  * depend on k, is carried across the k of one run: the run keeps one
  * [[TopDownSearch.Tree]], whose expanded nodes list the child slots with
  * `s_D ≥ τ_s` and hold those children ([[TopDownSearch.Node.slots]]), so
  * a pattern's s_D is counted at most once per run, each later visit
  * counts only the top-k of the listed children, and a child too small
  * for τ_s is never counted again. Its first count is Apriori-gen's: a
  * child that a lattice parent's list has already found too small is
  * never counted at all. Each k's
  * `Res` is decided inside its search, wave by wave, from the clean flags
  * that search set on the nodes it reached: each search from the root
  * takes a new stamp, so a flag from an earlier k counts for nothing
  * ([[TopDownSearch.Tree.search]]). Nothing is kept between runs.
  */
object IterTD {

  def run(
      counter: PatternCounter,
      bound: BiasBound,
      tauS: Long,
      kMin: Int,
      kMax: Int,
      budget: Budget = Budget.unlimited,
  ): DetectionResult = {
    TopDownSearch.requireValid(counter, tauS, kMin, kMax)
    val tree = new TopDownSearch.Tree(counter, bound, tauS)
    var res = SortedMap.empty[Int, Set[Pattern]]
    var examined = 0L
    var k = kMin
    var timedOut = false
    while (k <= kMax && !timedOut) {
      val found = tree.search(Seq(tree.root), k, budget)
      examined += found.examined
      timedOut = found.timedOut
      if (!timedOut) res += k -> found.mostGeneral.iterator.map(_.p).toSet
      k += 1
    }
    DetectionResult(res, examined, timedOut)
  }
}
