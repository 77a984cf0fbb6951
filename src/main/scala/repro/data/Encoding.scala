package repro.data

import org.apache.spark.sql.DataFrame
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
    * the same job and rule without the ranks.
    */
  def dictionaries(df: DataFrame, attrCols: Seq[String]): IndexedSeq[IndexedSeq[String]] =
    encode(df, attrCols, None)._1

  /** Build the driver-side bitset index from a ranked DataFrame in one
    * Spark job. The ranks must be exactly 1..|D|: a null, out-of-range or
    * repeated rank is rejected.
    */
  def index(df: DataFrame, attrCols: Seq[String], rankCol: String): DatasetIndex = {
    val (dicts, rows) = encode(df, attrCols, Some(rankCol))
    new DatasetIndex(rows, dicts.map(_.size), attrCols.toIndexedSeq, dicts)
  }

  /** One partition's encoding: per attribute, its labels (null for null)
    * in order of first sight, which is their code; its rows' codes, row
    * after row; each row's rank, 0 for a null, which `nullRank` flags.
    */
  private final case class Part(
      labels: Array[Array[String]], codes: Array[Int], ranks: Array[Int], nullRank: Boolean)

  /** Dictionaries and, with a `rankCol`, the rows' codes in rank order,
    * from one job in which each partition encodes its rows' string labels.
    * The driver merges the partitions' dictionaries (labels in string
    * order), remaps their codes and writes the row ranked r at r − 1.
    */
  private def encode(df: DataFrame, attrCols: Seq[String], rankCol: Option[String])
      : (IndexedSeq[IndexedSeq[String]], Array[Array[Int]]) = {
    val w = attrCols.length
    val labelsAndRank = attrCols.map(col(_).cast("string")) ++ rankCol.map(col(_).cast("int"))
    val parts = df.select(labelsAndRank: _*).rdd.mapPartitions { it =>
      val firstSeen = Array.fill(w)(new java.util.LinkedHashMap[String, Integer])
      val (codes, ranks) = (Array.newBuilder[Int], Array.newBuilder[Int])
      var nullRank = false
      for (r <- it) {
        for (a <- 0 until w) codes += firstSeen(a).computeIfAbsent(r.getString(a), _ => firstSeen(a).size)
        if (rankCol.isDefined) ranks += (if (r.isNullAt(w)) { nullRank = true; 0 } else r.getInt(w))
      }
      val labels = firstSeen.map(_.keySet.toArray(new Array[String](0)))
      Iterator.single(Part(labels, codes.result(), ranks.result(), nullRank))
    }.collect()

    def shown(label: String) = if (label == null) NullLabel else label
    val dicts = attrCols.indices.map { a =>
      val labels = parts.flatMap(_.labels(a)).distinct
      require(!labels.contains(NullLabel),
        s"column ${attrCols(a)} holds the string $NullLabel, which is reserved for null")
      labels.map(shown).sorted.toIndexedSeq
    }
    val rows = new Array[Array[Int]](parts.map(_.ranks.length).sum)
    for (c <- rankCol; p <- parts) {
      require(!p.nullRank, s"rank column $c holds a null")
      // the partition's codes in the merged dictionaries
      val remap = Array.tabulate(w)(a => p.labels(a).map(l => dicts(a).search(shown(l)).insertionPoint))
      for ((rank, j) <- p.ranks.zipWithIndex) {
        require(rank >= 1 && rank <= rows.length, s"rank column $c holds $rank, outside [1, ${rows.length}]")
        require(rows(rank - 1) == null, s"rank column $c holds $rank twice")
        rows(rank - 1) = Array.tabulate(w)(a => remap(a)(p.codes(j * w + a)))
      }
    }
    (dicts, rows)
  }
}
