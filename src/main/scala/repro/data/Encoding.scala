package repro.data

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import repro.core.DatasetIndex

/** Bridges ranked DataFrames and the search algorithms' inputs: values of
  * the pattern attributes are opaque categoricals, which a deterministic
  * dictionary (labels sorted by string form) maps to dense indices for the
  * driver-side [[DatasetIndex]] that the detectors and the result analysis
  * read.
  */
object Encoding {

  /** Dictionary label of null. Reserved: a column holding this string is
    * rejected, so a real value can never share null's entry.
    */
  val NullLabel = "∅"

  /** Per-attribute value dictionaries: sorted distinct string forms, with
    * null as [[NullLabel]]. These are [[index]]'s dictionaries, built by
    * the same rule from a collect of the labels alone.
    */
  def dictionaries(df: DataFrame, attrCols: Seq[String]): IndexedSeq[IndexedSeq[String]] =
    encode(df.select(attrCols.map(col(_).cast("string")): _*).collect(), attrCols, None)._1

  /** Build the driver-side bitset index from a ranked DataFrame in one
    * Spark job, the collect of every tuple's labels and rank. The ranks
    * must be exactly 1..|D|: a null, out-of-range or repeated rank is
    * rejected.
    */
  def index(df: DataFrame, attrCols: Seq[String], rankCol: String): DatasetIndex = {
    val labels = attrCols.map(col(_).cast("string")) :+ col(rankCol).cast("int")
    val (dicts, rows) = encode(df.select(labels: _*).collect(), attrCols, Some(rankCol))
    new DatasetIndex(rows, dicts.map(_.size), attrCols.toIndexedSeq, dicts)
  }

  /** Dictionaries and codes of `collected`, whose rows hold each
    * attribute's string label (null for null) and, with a `rankCol`, the
    * rank last, so that the row ranked r is written at r − 1 and no sort
    * runs. Codes are given in order of first sight, then in label order.
    */
  private def encode(collected: Array[Row], attrCols: Seq[String], rankCol: Option[String])
      : (IndexedSeq[IndexedSeq[String]], Array[Array[Int]]) = {
    val w = attrCols.length
    val firstSeen = Array.fill(w)(new java.util.HashMap[String, Integer])
    val rows = new Array[Array[Int]](collected.length)
    for ((r, i) <- collected.zipWithIndex) {
      val pos = rankCol.fold(i) { c =>
        require(!r.isNullAt(w), s"rank column $c holds a null")
        val rank = r.getInt(w)
        require(rank >= 1 && rank <= rows.length, s"rank column $c holds $rank, outside [1, ${rows.length}]")
        require(rows(rank - 1) == null, s"rank column $c holds $rank twice")
        rank - 1
      }
      rows(pos) = Array.tabulate(w)(a => firstSeen(a).computeIfAbsent(r.getString(a), _ => firstSeen(a).size))
    }
    val dicts = attrCols.indices.map { a =>
      require(!firstSeen(a).containsKey(NullLabel),
        s"column ${attrCols(a)} holds the string $NullLabel, which is reserved for null")
      val labels = new Array[String](firstSeen(a).size)
      firstSeen(a).forEach((label, code) => labels(code) = if (label == null) NullLabel else label)
      val order = labels.indices.sortBy(labels(_)) // first-sight codes in label order
      val renumbered = order.indices.sortBy(order(_)).toArray // its inverse
      rows.foreach(codes => codes(a) = renumbered(codes(a)))
      order.map(labels(_))
    }
    (dicts, rows)
  }
}
