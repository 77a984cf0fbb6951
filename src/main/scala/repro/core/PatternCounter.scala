package repro.core

/** Counting interface used by the search algorithms.
  *
  * Each wave of a search asks for the dataset size and the top-k size of
  * its parents' search-tree children. The one engine is
  * [[LocalPatternCounter]], an in-memory word-array index checked against
  * naive scans and DuckDB; tests and the benchmark tracer substitute
  * their own implementations.
  *
  * The searches count through [[countWave]], which names a wave by its
  * parents. [[countBatch]], the `Map` API over patterns, serves only
  * counters that look at each wave as a batch of patterns: [[countWave]]'s
  * default makes one [[countBatch]] call per wave.
  */
trait PatternCounter {

  /** Number of attributes in the schema. */
  def width: Int

  /** Cardinality of each attribute's active domain. */
  def domainSizes: IndexedSeq[Int]

  /** Total number of tuples |D|. */
  def datasetSize: Long

  /** For each pattern, `(s_D(p), s_{R^k(D)}(p))`. */
  def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)]

  /** Counts one search wave, given by its parents: the searches' entry
    * point. Each parent's search-tree children (Definition 4.1) are its
    * slots, in [[Pattern.searchTreeChildren]]'s order: every (attribute
    * `a`, value `v`) with `a` above the parent's last constrained
    * attribute, `a` ascending, then `v`. The wave's positions are the
    * slots each parent lists ([[PatternCounter.Parent.slots]]), the
    * parents one after the other; a slot not listed is not counted.
    * `topK(i)` receives position `i`'s s_{R^k(D)}. s_D does not depend on
    * k, so a caller that already knows a position's s_D passes it in
    * `sD(i)`; a position holding [[PatternCounter.Unknown]] (any negative
    * value) receives its s_D, and a known one is left as it is.
    *
    * The default builds the listed children's patterns and makes one
    * [[countBatch]] call with all of them, so a counter that overrides
    * only [[countBatch]] sees each wave as one batch;
    * [[LocalPatternCounter]] counts it from the parents' constraints and
    * builds no pattern.
    */
  def countWave(parents: IndexedSeq[PatternCounter.Parent], k: Int, sD: Array[Int], topK: Array[Int]): Unit = {
    val patterns = parents.flatMap(PatternCounter.listedChildren(_, domainSizes))
    val counts = countBatch(patterns, k)
    var i = 0
    while (i < patterns.length) {
      val (d, t) = counts(patterns(i))
      if (sD(i) < 0) sD(i) = d.toInt
      topK(i) = t.toInt
      i += 1
    }
  }

  /** Encoded attribute values of the tuple ranked `rank` (1-based) —
    * `R(D)[rank]` in the paper. The incremental engine walks the tracked
    * patterns the newly admitted tuple satisfies along it.
    */
  def rankedRow(rank: Int): Array[Int]
}

object PatternCounter {

  /** An s_D that is not known yet: an `sD` slot of
    * [[PatternCounter.countWave]], or a [[Parent.sD]].
    */
  final val Unknown: Int = -1

  /** A parent of a [[PatternCounter.countWave]] wave: the pattern with
    * value `vals(i)` on attribute `attrs(i)`, `attrs` strictly ascending;
    * its s_D, the number of tuples that satisfy it, or any negative value
    * ([[Unknown]]) if the caller does not know it; and the child slots to
    * count.
    *
    * `slots` lists, strictly ascending, the indices of the children to
    * count among the parent's search-tree children in
    * [[Pattern.searchTreeChildren]]'s order: (attribute `a`, value `v`) is
    * slot `offset(a) - offset(maxIdx + 1) + v`, where `offset(a)` is the
    * number of (attribute, value) pairs below `a` and `maxIdx` the last of
    * `attrs` (-1 at the root). The other slots are not counted. Only a
    * known s_D lets the counter take a last sibling's s_D by subtraction,
    * and only for an attribute whose values are all listed.
    */
  trait Parent {
    def attrs: Array[Int]
    def vals: Array[Int]
    def sD: Long
    def slots: Array[Int]
  }

  /** `q`'s listed children ([[Parent.slots]]) as patterns over a schema
    * with these domain sizes, in list order.
    */
  private def listedChildren(q: Parent, domainSizes: IndexedSeq[Int]): Seq[Pattern] = {
    val offset = domainSizes.scanLeft(0)(_ + _)
    val parent = Pattern.of(domainSizes.length, q.attrs.indices.map(i => q.attrs(i) -> q.vals(i)): _*)
    val base = offset(parent.maxIdx + 1)
    q.slots.toSeq.map { s =>
      val g = base + s
      val a = offset.lastIndexWhere(_ <= g, domainSizes.length - 1)
      Pattern(parent.vals.updated(a, g - offset(a)))
    }
  }
}

/** Bitset counter over a [[DatasetIndex]]: a wave is one call of
  * [[DatasetIndex.countWave]], which keeps a stack of the parents' ANDs,
  * so each listed search-tree child costs one AND + popcount pass over
  * the index words, or over the first ⌈k/64⌉ words when its s_D is known;
  * a large wave is counted in parallel chunks.
  *
  * [[countBatch]] adapts the `Map` API to that kernel: each pattern is a
  * slot of its search-tree parent's wave (the pattern with its
  * [[Pattern.maxIdx]] attribute set to wildcard), and one
  * [[DatasetIndex.countWave]] call counts the batch's distinct parents,
  * each with an unknown s_D and only the slots the batch asks for listed.
  */
final class LocalPatternCounter(val index: DatasetIndex) extends PatternCounter {
  override def width: Int = index.width
  override def domainSizes: IndexedSeq[Int] = index.domainSizes
  override def datasetSize: Long = index.size.toLong

  override def countWave(parents: IndexedSeq[PatternCounter.Parent], k: Int, sD: Array[Int], topK: Array[Int]): Unit =
    index.countWave(parents, k, sD, topK)

  /** The `Map` API as one wave of the patterns' distinct search-tree
    * parents (see the class doc); the root pattern needs no count.
    *
    * @throws IllegalArgumentException if `k < 0` or a pattern's width is
    *         not [[width]]
    */
  override def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)] = {
    val ps = patterns.toIndexedSeq // no copy for the default countWave's Vector
    // offset(a): number of (attribute, value) pairs on attributes below a
    val offset = domainSizes.scanLeft(0)(_ + _)
    val position = scala.collection.mutable.HashMap.empty[Pattern, Int] // a parent's place in the wave
    val parents = scala.collection.mutable.ArrayBuffer.empty[Pattern]
    val asked = scala.collection.mutable.ArrayBuffer.empty[scala.collection.mutable.BitSet] // each parent's slots
    val parentOf = new Array[Int](ps.length) // each pattern's parent; -1 for the root
    val slotOf = new Array[Int](ps.length) // and its slot among that parent's children
    var i = 0
    while (i < ps.length) {
      val p = ps(i)
      if (p.width != width)
        throw new IllegalArgumentException(s"pattern $p has width ${p.width}, the index has $width attributes")
      val a = p.maxIdx
      if (a < 0) parentOf(i) = -1
      else {
        val q = Pattern(p.vals.updated(a, Pattern.Wildcard))
        val j = position.getOrElseUpdate(q, {
          parents += q
          asked += scala.collection.mutable.BitSet.empty
          parents.length - 1
        })
        parentOf(i) = j
        slotOf(i) = offset(a) - offset(q.maxIdx + 1) + p.vals(a)
        asked(j) += slotOf(i)
      }
      i += 1
    }
    val wave = parents.indices.map { j =>
      val as = parents(j).attrs.toArray
      new LocalPatternCounter.Parent(as, as.map(parents(j).vals), asked(j).toArray)
    }
    val starts = wave.scanLeft(0)(_ + _.slots.length) // each parent's first position, then the wave's size
    val sD = Array.fill(starts.last)(PatternCounter.Unknown)
    val topK = new Array[Int](sD.length)
    index.countWave(wave, k, sD, topK)
    val out = Map.newBuilder[Pattern, (Long, Long)]
    i = 0
    while (i < ps.length) {
      val j = parentOf(i)
      out += ps(i) -> {
        if (j < 0) (datasetSize, math.min(k, index.size).toLong)
        else {
          val at = starts(j) + java.util.Arrays.binarySearch(wave(j).slots, slotOf(i))
          (sD(at).toLong, topK(at).toLong)
        }
      }
      i += 1
    }
    out.result()
  }

  override def rankedRow(rank: Int): Array[Int] = index.rows(rank - 1)
}

object LocalPatternCounter {

  /** A wave parent of [[LocalPatternCounter.countBatch]]: its s_D is not
    * known, and it lists the slots a batch asks for.
    */
  private final class Parent(val attrs: Array[Int], val vals: Array[Int], val slots: Array[Int])
      extends PatternCounter.Parent {
    def sD: Long = PatternCounter.Unknown
  }
}
