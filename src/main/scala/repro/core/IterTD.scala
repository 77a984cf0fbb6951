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

/** ITERTD — the baseline of Section IV-A: Algorithm 1 re-run from
  * scratch for every k in `[kMin, kMax]`. Handles both problem
  * definitions through the [[BiasBound]] abstraction, exactly as the
  * paper's baseline does.
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
    require(kMin >= 1 && kMax >= kMin && kMax <= counter.datasetSize, s"bad range [$kMin,$kMax]")
    require(tauS >= 1, s"τ_s must be at least 1, got $tauS")
    var res = SortedMap.empty[Int, Set[Pattern]]
    var examined = 0L
    var k = kMin
    var timedOut = false
    while (k <= kMax && !timedOut) {
      val snap = TopDownSearch.singleK(counter, bound, tauS, k, budget)
      examined += snap.examined
      timedOut = snap.timedOut
      if (!timedOut) res += k -> snap.res.toSet
      k += 1
    }
    DetectionResult(res, examined, timedOut)
  }
}
