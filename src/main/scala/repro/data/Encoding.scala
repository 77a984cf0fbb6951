package repro.data

import scala.collection.mutable

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{BoundReference, Cast, GenericInternalRow}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._
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
    * repeated rank is rejected. An attribute of binary, array, map or
    * struct type is rejected by name before the job.
    */
  def index(df: DataFrame, attrCols: Seq[String], rankCol: String): DatasetIndex = {
    val (dicts, rows) = encode(df, attrCols, Some(rankCol))
    new DatasetIndex(rows, dicts.map(_.size), attrCols.toIndexedSeq, dicts)
  }

  /** One partition's encoding: per attribute, its distinct internal
    * values (null for null) in order of first sight, which is their code;
    * its rows' codes, row after row; each row's rank, 0 for a null, which
    * `nullRank` flags.
    */
  private final case class Part(
      values: Array[Array[AnyRef]], codes: Array[Int], ranks: Array[Int], nullRank: Boolean)

  /** Whether Catalyst's internal values of `dt` can key a hash map: a
    * binary value is a byte array, which compares by identity, and array,
    * map and struct values are nested rows and arrays.
    */
  private def hashable(dt: DataType): Boolean = dt match {
    case BinaryType | _: ArrayType | _: MapType | _: StructType => false
    case _ => true
  }

  /** Dictionaries and, with a `rankCol`, the rows' codes in rank order,
    * from one job over Catalyst's internal rows in which each partition
    * encodes its rows against first-seen dictionaries of internal values.
    * The driver labels each partition's distinct values with Catalyst's
    * cast to string in the session time zone, merges the dictionaries by
    * label (labels in string order, so values that share a label share a
    * code), remaps the partitions' codes and writes the row ranked r at
    * r − 1.
    */
  private def encode(df: DataFrame, attrCols: Seq[String], rankCol: Option[String])
      : (IndexedSeq[IndexedSeq[String]], Array[Array[Int]]) = {
    val w = attrCols.length
    val selected = df.select(attrCols.map(col) ++ rankCol.map(col(_).cast("int")): _*)
    val types = selected.schema.fields.take(w).map(_.dataType).toSeq
    for ((c, dt) <- attrCols.zip(types))
      require(hashable(dt), s"attribute column $c has type ${dt.simpleString}: binary, array, map and struct values are not categorical")
    val hasRank = rankCol.isDefined
    val parts = selected.queryExecution.toRdd.mapPartitions { it =>
      val read = types.map(InternalRow.getAccessor(_, nullable = true)).toArray
      val firstSeen = Array.fill(w)(new java.util.LinkedHashMap[Any, Integer])
      val (codes, ranks) = (new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofInt)
      var nullRank = false
      while (it.hasNext) {
        val r = it.next()
        var a = 0
        while (a < w) {
          val v = read(a)(r, a)
          val code = firstSeen(a).get(v)
          if (code != null) codes += code
          else {
            val next = firstSeen(a).size
            // the row's values may be views of a buffer the next row reuses
            firstSeen(a).put(InternalRow.copyValue(v), next)
            codes += next
          }
          a += 1
        }
        if (hasRank) ranks += (if (r.isNullAt(w)) { nullRank = true; 0 } else r.getInt(w))
      }
      Iterator.single(Part(firstSeen.map(_.keySet.toArray), codes.result(), ranks.result(), nullRank))
    }.collect()

    val zone = Some(selected.sparkSession.sessionState.conf.sessionLocalTimeZone)
    // per attribute, per partition: the label of each distinct value
    val labels = Array.tabulate(w) { a =>
      val cast = Cast(BoundReference(0, types(a), nullable = true), StringType, zone)
      parts.map(_.values(a).map { v =>
        val l = cast.eval(new GenericInternalRow(Array[Any](v)))
        if (l == null) null else l.toString
      })
    }
    def shown(label: String) = if (label == null) NullLabel else label
    val dicts = attrCols.indices.map { a =>
      val distinct = labels(a).flatten.distinct
      require(!distinct.contains(NullLabel),
        s"column ${attrCols(a)} holds the string $NullLabel, which is reserved for null")
      distinct.map(shown).sorted.toIndexedSeq
    }
    val rows = new Array[Array[Int]](parts.map(_.ranks.length).sum)
    for (c <- rankCol; (p, i) <- parts.zipWithIndex) {
      require(!p.nullRank, s"rank column $c holds a null")
      // the partition's codes in the merged dictionaries
      val remap = Array.tabulate(w)(a => labels(a)(i).map(l => dicts(a).search(shown(l)).insertionPoint))
      var j = 0
      while (j < p.ranks.length) {
        val rank = p.ranks(j)
        // `require` would build its message closure for every row
        if (rank < 1 || rank > rows.length) reject(s"rank column $c holds $rank, outside [1, ${rows.length}]")
        if (rows(rank - 1) != null) reject(s"rank column $c holds $rank twice")
        val row = new Array[Int](w)
        var a = 0
        while (a < w) { row(a) = remap(a)(p.codes(j * w + a)); a += 1 }
        rows(rank - 1) = row
        j += 1
      }
    }
    (dicts, rows)
  }

  /** Fails as a `require` with `msg` does. */
  private def reject(msg: String): Nothing = throw new IllegalArgumentException(s"requirement failed: $msg")
}
