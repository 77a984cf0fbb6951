package repro.divergence

import repro.core.{Budget, GlobalLowerBound, Pattern, PatternCounter, TopDownSearch}

/** Reimplementation of the comparison method of Pastor, de Alfaro and
  * Baralis [27] ("Identifying biased subgroups in ranking and
  * classification"), used in the paper's Section VI-D case study.
  *
  * Each tuple gets an outcome `o(t) = 1` iff it appears in the top-k of
  * the ranking, else 0. For a subgroup `G` (a pattern), the outcome is
  * the mean over its members — i.e. `s_{R^k(D)}(p) / s_D(p)` — and its
  * divergence is `o(G) − o(D)` with `o(D) = k / |D|`. The method reports
  * *all* subgroups with support at least `minSupport` (no most-general
  * filtering and a single k), ranked by divergence.
  *
  * Enumeration is the top-down search of Algorithm 1
  * ([[TopDownSearch.Tree.search]]) with `τ_s = minSupport` and a bound of
  * 0: no count is below 0, so it opens every pattern with enough support
  * (support is anti-monotone) and the opened nodes are the subgroups.
  */
object DivergenceExplorer {

  /** One reported subgroup. */
  final case class DivGroup(p: Pattern, support: Long, outcome: Double, divergence: Double)

  /** All subgroups with support ≥ `minSupport`, sorted by divergence
    * descending (ties broken deterministically by pattern rendering).
    *
    * @throws IllegalArgumentException if `minSupport < 1` (a group of no
    *         tuples has no outcome) or `k` is outside `[1, |D|]`
    */
  def run(counter: PatternCounter, k: Int, minSupport: Long): Seq[DivGroup] = {
    TopDownSearch.requireValid(counter, minSupport, k, k)
    val oD = k.toDouble / counter.datasetSize
    val tree = new TopDownSearch.Tree(counter, GlobalLowerBound(_ => 0.0), minSupport)
    tree
      .search(Seq(tree.root), k, Budget.unlimited)
      .opened
      .map { n =>
        val oG = n.cnt.toDouble / n.sD
        DivGroup(n.p, n.sD, oG, oG - oD)
      }
      .toVector
      .sortBy(g => (-g.divergence, g.p.toString))
  }
}
