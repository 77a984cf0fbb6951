package repro.core

import scala.collection.immutable.SortedMap
import scala.collection.mutable
import PatternLattice._

/** Brute-force reference implementation of the declarative result
  * specification (test oracle only):
  *
  * `Res[k] = { p : s_D(p) ≥ τ_s, biased_k(p), ∀ p' ⊂ p : ¬biased_k(p') }`
  *
  * Enumerates the entire τ_s region of the pattern graph (it is downward
  * closed: a sub-pattern of a large pattern is at least as large), then
  * applies the definition literally for each k. Exponential — use on
  * small schemas only. Counts are literal scans of `index.rows`, so the
  * oracle shares no code with the counting kernel it checks.
  */
object BruteForce {

  private def sizeD(index: DatasetIndex, p: Pattern): Long = index.rows.count(p.matches).toLong

  private def sizeTopK(index: DatasetIndex, p: Pattern, k: Int): Long =
    index.rows.iterator.take(k).count(p.matches).toLong

  /** All patterns with `s_D ≥ τ_s`, enumerated via the search tree. */
  def tauRegion(index: DatasetIndex, tauS: Long): Vector[Pattern] = {
    val out = mutable.ArrayBuffer.empty[Pattern]
    val queue = mutable.Queue.empty[Pattern]
    queue ++= Pattern.root(index.width).searchTreeChildren(index.domainSizes)
    while (queue.nonEmpty) {
      val p = queue.dequeue()
      if (sizeD(index, p) >= tauS) {
        out += p
        queue ++= p.searchTreeChildren(index.domainSizes)
      }
    }
    out.toVector
  }

  def run(
      index: DatasetIndex,
      bound: BiasBound,
      tauS: Long,
      kMin: Int,
      kMax: Int,
  ): SortedMap[Int, Set[Pattern]] = {
    val region = tauRegion(index, tauS)
    val sizes  = region.map(p => p -> sizeD(index, p)).toMap
    var res = SortedMap.empty[Int, Set[Pattern]]
    for (k <- kMin to kMax) {
      val biased: Set[Pattern] =
        region.filter(p => bound.biased(sizeTopK(index, p, k), sizes(p), k)).toSet
      // NB: sub-patterns of a τ_s pattern are themselves above τ_s, so the
      // "all proper sub-patterns adequately represented" check only needs
      // to look inside the biased set.
      res += k -> biased.filter(p => !biased.exists(_.strictlySubsumes(p)))
    }
    res
  }
}
