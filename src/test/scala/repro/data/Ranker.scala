package repro.data

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Score-based ranking `R` as a Spark window: the ranking oracle that
  * [[BiasDataGen.generate]]'s driver-side ranks must reproduce (through
  * [[GeneratorOracle]]), and the ranker of the Figure 1 tests.
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
}
