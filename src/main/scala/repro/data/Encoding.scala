package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.DatasetIndex

/** Bridges ranked DataFrames and the search algorithms' inputs.
  *
  * Values of the pattern attributes are treated as opaque categoricals;
  * a deterministic dictionary (values sorted by string form) maps them
  * to dense indices for the driver-side [[DatasetIndex]], which the
  * detectors and the result analysis read.
  */
object Encoding {

  /** Dictionary label of null. Reserved: a column holding this string is
    * rejected, so a real value can never share null's entry.
    */
  val NullLabel = "∅"

  /** Per-attribute value dictionaries: sorted distinct string forms, with
    * null as [[NullLabel]]. One aggregation job collects, per column, the
    * set of non-null values and whether any value is null.
    */
  def dictionaries(df: DataFrame, attrCols: Seq[String]): IndexedSeq[IndexedSeq[String]] =
    if (attrCols.isEmpty) IndexedSeq.empty
    else {
      val aggs = attrCols.flatMap(c =>
        Seq(collect_set(col(c).cast("string")), count(when(col(c).isNull, 1))))
      val row = df.agg(aggs.head, aggs.tail: _*).head()
      attrCols.indices.map { i =>
        val values = row.getSeq[String](2 * i)
        require(!values.contains(NullLabel),
          s"column ${attrCols(i)} holds the string $NullLabel, which is reserved for null")
        (if (row.getLong(2 * i + 1) > 0) values :+ NullLabel else values).sorted.toIndexedSeq
      }
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
      element_at(mapping, coalesce(col(c).cast("string"), lit(NullLabel))).alias(c)
    }
    val enc = df.select(encodedCols :+ col(rankCol).cast("int").alias(rankCol): _*)
    (enc, dicts.map(_.size), dicts)
  }

  /** Build the driver-side bitset index from a ranked DataFrame.
    *
    * The encoded rows are collected in any order and each is placed at
    * its rank, so no sort runs. The ranks must be exactly 1..|D|: a null,
    * out-of-range or repeated rank is rejected.
    */
  def index(df: DataFrame, attrCols: Seq[String], rankCol: String): DatasetIndex = {
    val (enc, domainSizes, dicts) = encode(df, attrCols, rankCol)
    val collected = enc.collect()
    val w = attrCols.length
    val rows = new Array[Array[Int]](collected.length)
    for (r <- collected) {
      require(!r.isNullAt(w), s"rank column $rankCol holds a null")
      val rank = r.getInt(w)
      require(rank >= 1 && rank <= rows.length,
        s"rank column $rankCol holds $rank, outside [1, ${rows.length}]")
      require(rows(rank - 1) == null, s"rank column $rankCol holds $rank twice")
      rows(rank - 1) = Array.tabulate(w)(r.getInt)
    }
    new DatasetIndex(rows, domainSizes, attrCols.toIndexedSeq, dicts)
  }
}
