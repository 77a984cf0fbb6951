package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.DatasetIndex

/** Bridges ranked DataFrames and the search algorithms' inputs.
  *
  * Values of the pattern attributes are treated as opaque categoricals;
  * a deterministic dictionary (values sorted by string form) maps them
  * to dense indices for both the driver-side [[DatasetIndex]] and the
  * integer-encoded DataFrame consumed by
  * [[repro.core.SparkPatternCounter]].
  */
object Encoding {

  /** Per-attribute value dictionaries: sorted distinct string forms, with
    * null as `∅`. One aggregation job collects the sets of all columns.
    */
  def dictionaries(df: DataFrame, attrCols: Seq[String]): IndexedSeq[IndexedSeq[String]] =
    if (attrCols.isEmpty) IndexedSeq.empty
    else {
      val sets = attrCols.map(c => collect_set(coalesce(col(c).cast("string"), lit("∅"))))
      val row = df.agg(sets.head, sets.tail: _*).head()
      attrCols.indices.map(i => row.getSeq[String](i).sorted.toIndexedSeq)
    }

  /** Integer-encode the pattern attributes of a ranked DataFrame.
    *
    * @return (encoded DataFrame with one int column per attribute plus
    *         the rank column, per-attribute domain sizes)
    */
  def encode(
      df: DataFrame,
      attrCols: Seq[String],
      rankCol: String,
  ): (DataFrame, IndexedSeq[Int], IndexedSeq[IndexedSeq[String]]) = {
    val dicts = dictionaries(df, attrCols)
    val encodedCols = attrCols.zipWithIndex.map { case (c, i) =>
      val mapping = map(dicts(i).zipWithIndex.flatMap { case (v, j) =>
        Seq(lit(v), lit(j))
      }: _*)
      element_at(mapping, coalesce(col(c).cast("string"), lit("∅"))).alias(c)
    }
    val enc = df.select(encodedCols :+ col(rankCol).cast("int").alias(rankCol): _*)
    (enc, dicts.map(_.size), dicts)
  }

  /** Build the driver-side bitset index from a ranked DataFrame. */
  def index(df: DataFrame, attrCols: Seq[String], rankCol: String): DatasetIndex = {
    val (enc, domainSizes, dicts) = encode(df, attrCols, rankCol)
    val rows = enc
      .orderBy(col(rankCol))
      .collect()
      .map(r => Array.tabulate(attrCols.length)(i => r.getInt(i)))
    new DatasetIndex(rows, domainSizes, attrCols.toIndexedSeq, dicts)
  }
}
