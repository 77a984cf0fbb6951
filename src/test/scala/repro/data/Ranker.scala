package repro.data

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.catalyst.util.SQLOrderingUtil
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Score-based ranking `R` as a Spark window: the ranking oracle that
  * [[BiasDataGen.generate]]'s driver-side ranks must reproduce (through
  * [[GeneratorOracle]]), and the ranker of the Figure 1 tests; and the
  * same ranking as a comparator sort on the driver, the oracle of
  * [[BiasDataGen.ranks]].
  */
object Ranker {

  /** Rank tuples by `scoreCol` (descending by default), breaking ties by
    * `tieBreak` columns and finally by `idCol` so ranking is total and
    * deterministic. Adds a dense 1-based `rankCol` via `row_number`.
    *
    * The window is unpartitioned, a global sort that moves every row to
    * one partition: the semantics of a total ranking, at the cost of one
    * task over all rows.
    */
  def byScore(
      df: DataFrame,
      scoreCol: String,
      idCol: String,
      rankCol: String = "rank",
      ascending: Boolean = false,
      tieBreak: Seq[Column] = Seq.empty,
  ): DataFrame = {
    val primary = if (ascending) col(scoreCol).asc else col(scoreCol).desc
    val w = Window.orderBy(primary +: tieBreak :+ col(idCol).asc: _*)
    df.withColumn(rankCol, row_number().over(w))
  }

  /** The 1-based rank of each index of `scores` in a stable sort of the
    * indices by score descending under Spark SQL's double comparator
    * (NaN first, −0.0 equal to 0.0), so ties keep index order.
    */
  def sortWithRanks(scores: Array[Double]): Array[Int] = {
    val rank = new Array[Int](scores.length)
    val order = scores.indices.sortWith((a, b) => SQLOrderingUtil.compareDoubles(scores(a), scores(b)) > 0)
    for ((id, r) <- order.zipWithIndex) rank(id) = r + 1
    rank
  }
}
