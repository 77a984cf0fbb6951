package repro.core

/** In-memory index of a ranked, categorically-encoded dataset.
  *
  * Tuples are stored in rank order (position 0 = rank 1). For every
  * (attribute, value) pair an `Array[Long]` of ⌈n/64⌉ words records which
  * positions carry that value (bit `i & 63` of word `i >>> 6`). A
  * pattern's support is the popcount of the AND of its attribute-value
  * words; its count in the top-k is the same popcount over the first k
  * positions.
  *
  * All counting goes through [[countInto]]. A search-tree child
  * (Definition 4.1) is its parent plus one attribute-value, so the kernel
  * keeps the parent's AND in a scratch buffer while consecutive patterns
  * share a parent, and counts each child with one AND + popcount pass.
  * s_D does not depend on k: a pattern whose s_D the caller already
  * knows costs only the first ⌈k/64⌉ words. A large batch is split into
  * contiguous chunks counted in parallel on the common ForkJoin pool,
  * each with its own scratch buffers; the results are the same as the
  * sequential loop's.
  *
  * @param rows        encoded tuples in rank order; `rows(i)(a)` is the
  *                    value index of attribute `a` in the rank-(i+1) tuple
  * @param domainSizes active-domain cardinality per attribute
  * @param attrNames   attribute names (for rendering)
  * @param domains     value labels per attribute (for rendering)
  * @throws IllegalArgumentException if the bitsets (Σ domain × ⌈n/64⌉ ×
  *         8 bytes) exceed the JVM's maximum heap, or the rows, names or
  *         labels do not fit the attributes and their domains
  */
final class DatasetIndex(
    val rows: Array[Array[Int]],
    val domainSizes: IndexedSeq[Int],
    val attrNames: IndexedSeq[String],
    val domains: IndexedSeq[IndexedSeq[String]],
) {
  require(rows.forall(_.length == domainSizes.length), "row width mismatch")

  /** Number of tuples |D|. */
  val size: Int = rows.length

  /** Number of attributes. */
  val width: Int = domainSizes.length

  private val nWords: Int = (size + 63) >>> 6

  // Bitsets that cannot fit in the heap are rejected before allocating.
  require(nWords == 0 || domainSizes.map(_.toLong).sum <= Runtime.getRuntime.maxMemory / 8 / nWords, tooLarge)
  require(attrNames.length == width && domains.length == width,
    s"${attrNames.length} attribute names and ${domains.length} label lists for $width attributes")
  for (a <- 0 until width) require(domains(a).length == domainSizes(a),
    s"attribute ${attrNames(a)} has ${domains(a).length} labels for ${domainSizes(a)} values")

  /** `words(a)(v)`: positions whose tuple has value `v` for attribute `a`. */
  private val words: Array[Array[Array[Long]]] = bitsets()

  // Outside the constructor: HotSpot ran this loop ≈20× slower there
  // (100k × 16 rows, OpenJDK 17: ≈100 ms against ≈5 ms).
  private def bitsets(): Array[Array[Array[Long]]] = {
    val ws = Array.tabulate(width)(a => Array.fill(domainSizes(a))(new Array[Long](nWords)))
    var i = 0
    while (i < rows.length) {
      val r = rows(i)
      var a = 0
      while (a < width) {
        if (r(a) < 0 || r(a) >= ws(a).length) throw new IllegalArgumentException(
          s"rank ${i + 1} holds value ${r(a)} of attribute ${attrNames(a)}, outside [0, ${ws(a).length})")
        ws(a)(r(a))(i >>> 6) |= 1L << i
        a += 1
      }
      i += 1
    }
    ws
  }

  /** Counts every pattern of `patterns`: `sD(i)` receives s_D and
    * `topK(i)` receives s_{R^k(D)} of the i-th pattern. This is
    * [[countInto]] with every s_D unknown.
    *
    * @throws IllegalArgumentException if `k < 0` or a pattern's width is
    *         not [[width]]
    */
  def countBatch(patterns: IndexedSeq[Pattern], k: Int, sD: Array[Int], topK: Array[Int]): Unit = {
    java.util.Arrays.fill(sD, 0, patterns.length, PatternCounter.Unknown)
    countInto(patterns, k, sD, topK)
  }

  /** The counting kernel: `topK(i)` receives s_{R^k(D)} of the i-th
    * pattern, and `sD(i)` its s_D if `sD(i)` is negative on entry
    * ([[PatternCounter.Unknown]]). A slot with a known s_D is left as it
    * is and costs only the first ⌈k/64⌉ words, where an unknown one reads
    * all ⌈n/64⌉.
    *
    * The batch is cut into [[DatasetIndex.chunks]] contiguous chunks by
    * the words it reads, ⌈n/64⌉ per unknown slot and ⌈k/64⌉ per known
    * one: one chunk, on the calling thread, below
    * [[DatasetIndex.ParallelWork]] or on a one-CPU JVM; else several,
    * counted on the common ForkJoin pool. Each chunk walks its patterns in
    * order with its own two scratch buffers, which hold the AND of a
    * parent (the pattern with its [[Pattern.maxIdx]] attribute set to
    * wildcard): a full-width one for the unknown slots, and one of the
    * first ⌈k/64⌉ words for a known slot whose parent the full one does
    * not hold. Each is loaded when the parent it must serve changes, so a
    * batch that lists siblings next to each other — as the BFS does — pays
    * one pass per child, and a known slot never loads the full width. A
    * chunk writes only its own slots, and a count depends only on its
    * pattern and `k`, so the results do not depend on the chunking or on
    * thread timing. Nothing is allocated per pattern.
    *
    * @throws IllegalArgumentException if `k < 0` or a pattern's width is
    *         not [[width]]
    */
  def countInto(patterns: IndexedSeq[Pattern], k: Int, sD: Array[Int], topK: Array[Int]): Unit = {
    require(k >= 0, s"k must be non-negative: $k")
    val n = patterns.length
    var known = 0
    var i = 0
    while (i < n) {
      val w = patterns(i).width
      require(w == width, s"pattern ${patterns(i)} has width $w, the index has $width attributes")
      if (sD(i) >= 0) known += 1
      i += 1
    }
    val kk = math.min(k, size)
    val chunks = DatasetIndex.chunks(n, nWords, DatasetIndex.Cpus, known, (kk + 63) >>> 6)
    if (chunks == 1) countRange(patterns, 0, n, kk, sD, topK)
    else
      java.util.stream.IntStream.range(0, chunks).parallel().forEach { c =>
        countRange(patterns, (c.toLong * n / chunks).toInt, ((c + 1).toLong * n / chunks).toInt, kk, sD, topK)
      }
  }

  /** Counts `patterns(from until to)` into the same slots of `sD` /
    * `topK`, with `kk = min(k, |D|)`.
    */
  private def countRange(
      patterns: IndexedSeq[Pattern],
      from: Int,
      to: Int,
      kk: Int,
      sD: Array[Int],
      topK: Array[Int],
  ): Unit = {
    val kFull = kk >>> 6
    val kMask = (1L << kk) - 1 // low (kk & 63) bits; unused when kk & 63 == 0
    val kWords = (kk + 63) >>> 6
    val full = new Array[Long](nWords)
    val head = new Array[Long](kWords) // the first kWords words only
    var fullOf: Pattern = null // full holds the AND of this pattern's parent
    var fullM = -1             // fullOf.maxIdx
    var headOf: Pattern = null // head holds the AND of this pattern's parent
    var headM = -1             // headOf.maxIdx
    var i = from
    while (i < to) {
      val p = patterns(i)
      val m = p.maxIdx
      val known = sD(i) >= 0
      if (m < 0) {
        if (!known) sD(i) = size
        topK(i) = kk
      } else {
        val parent =
          if (m == fullM && sameBelow(p, fullOf, m)) full
          else if (!known) {
            loadParent(p, m, full, nWords)
            fullOf = p
            fullM = m
            full
          } else {
            if (m != headM || !sameBelow(p, headOf, m)) {
              loadParent(p, m, head, kWords)
              headOf = p
              headM = m
            }
            head
          }
        val leaf = words(m)(p.vals(m))
        if (!known) {
          var d = 0
          var j = 0
          while (j < nWords) {
            d += java.lang.Long.bitCount(parent(j) & leaf(j))
            j += 1
          }
          sD(i) = d
        }
        var t = 0
        var j = 0
        while (j < kFull) {
          t += java.lang.Long.bitCount(parent(j) & leaf(j))
          j += 1
        }
        if ((kk & 63) != 0) t += java.lang.Long.bitCount(parent(kFull) & leaf(kFull) & kMask)
        topK(i) = t
      }
      i += 1
    }
  }

  /** Do `p` and `q` agree on every attribute `< m`? With both at
    * `maxIdx == m`, that means they have the same parent.
    */
  private def sameBelow(p: Pattern, q: Pattern, m: Int): Boolean = {
    var a = 0
    while (a < m && p.vals(a) == q.vals(a)) a += 1
    a == m
  }

  /** Fill the first `len` words of `scratch` with the AND of `p`'s
    * constraints on attributes `< m`.
    */
  private def loadParent(p: Pattern, m: Int, scratch: Array[Long], len: Int): Unit = {
    java.util.Arrays.fill(scratch, 0, len, -1L)
    var a = 0
    while (a < m) {
      val v = p.vals(a)
      if (v != Pattern.Wildcard) {
        val w = words(a)(v)
        var j = 0
        while (j < len) {
          scratch(j) &= w(j)
          j += 1
        }
      }
      a += 1
    }
  }

  /** Both counts of one pattern: `(s_D(p), s_{R^k(D)}(p))`. */
  def sizes(p: Pattern, k: Int): (Int, Int) = {
    val d = new Array[Int](1)
    val t = new Array[Int](1)
    countBatch(Vector(p), k, d, t)
    (d(0), t(0))
  }

  /** s_D(p): number of tuples in D satisfying `p`. */
  def sizeD(p: Pattern): Int = sizes(p, 0)._1

  /** Why the bitsets do not fit in the heap, naming the widest attribute. */
  private def tooLarge: String = {
    val gib = (bytes: Double) => f"${bytes / (1L << 30)}%.1f GiB"
    val widest = domainSizes.indices.maxBy(domainSizes)
    s"the index's bitsets need ${gib(domainSizes.map(_.toDouble).sum * nWords * 8)} " +
      s"(Σ domain × ⌈n/64⌉ × 8 bytes), more than the ${gib(Runtime.getRuntime.maxMemory.toDouble)} heap: " +
      s"attribute ${attrNames(widest)} has the largest domain (${domainSizes(widest)} values); bucketize it"
  }

  /** Render a pattern against this schema. */
  def render(p: Pattern): String = p.render(attrNames, domains)
}

object DatasetIndex {

  /** Work (patterns × words) from which a batch is counted in parallel.
    * Below it, forking chunks costs more than it saves.
    */
  private[core] final val ParallelWork: Long = 1L << 18

  private[core] val Cpus: Int = Runtime.getRuntime.availableProcessors

  /** Number of chunks for a batch of `patterns` over `nWords`-word
    * bitsets on `cpus` processors, `known` of which have a known s_D and
    * read only `kWords` words: 1 (the calling thread alone) for small
    * batches or one CPU, else `4 × cpus` (at most one per pattern), so
    * that uneven chunks still balance across the pool.
    */
  private[core] def chunks(patterns: Int, nWords: Int, cpus: Int, known: Int = 0, kWords: Int = 0): Int =
    if (cpus <= 1 || (patterns - known).toLong * nWords + known.toLong * kWords < ParallelWork) 1
    else math.min(4 * cpus, patterns)
}
