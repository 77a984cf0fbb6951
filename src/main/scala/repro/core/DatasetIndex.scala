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
  * A search-tree child (Definition 4.1) is its parent plus one
  * attribute-value. The searches count a wave of children through
  * [[countWave]], from the parents' constraints, and a batch of patterns
  * goes through [[countInto]]; both keep the parents' ANDs on a prefix
  * stack and count each child with one AND + popcount pass. s_D does not
  * depend on k: a child whose s_D the caller already knows costs only the
  * first ⌈k/64⌉ words, and in a wave the last value of an attribute whose
  * siblings are all counted gets its s_D by subtraction. A large wave or
  * batch is split into contiguous chunks counted in parallel on the
  * common ForkJoin pool, each with its own stacks; the results are the
  * same as the sequential loop's.
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

  /** `offset(a)`: number of (attribute, value) pairs on attributes below `a`. */
  private val offset: Array[Int] = domainSizes.scanLeft(0)(_ + _).toArray

  /** The AND of no constraint: every word all ones. Bits past |D| are
    * set too, but every leaf has them clear.
    */
  private val ones: Array[Long] = Array.fill(nWords)(-1L)

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

  /** The pattern path of the kernel: `topK(i)` receives s_{R^k(D)} of the
    * i-th pattern, and `sD(i)` its s_D if `sD(i)` is negative on entry
    * ([[PatternCounter.Unknown]]). A slot with a known s_D is left as it
    * is and costs only the first ⌈k/64⌉ words, where an unknown one reads
    * all ⌈n/64⌉.
    *
    * Each pattern is counted as the child of its parent (the pattern with
    * its [[Pattern.maxIdx]] attribute set to wildcard) by the per-slot
    * loop and prefix stacks of [[countWave]], so a batch that lists
    * siblings next to each other pays one pass per child. The batch is
    * cut into [[DatasetIndex.chunks]] contiguous chunks by the words it
    * reads, ⌈n/64⌉ per unknown slot and ⌈k/64⌉ per known one.
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
    if (chunks == 1) new Chunk(kk).batch(patterns, 0, n, sD, topK)
    else
      java.util.stream.IntStream.range(0, chunks).parallel().forEach { c =>
        new Chunk(kk).batch(patterns, (c.toLong * n / chunks).toInt, ((c + 1).toLong * n / chunks).toInt, sD, topK)
      }
  }

  /** The wave kernel, [[PatternCounter.countWave]]: counts the children
    * of `parents`, slot by slot in [[Pattern.searchTreeChildren]]'s order,
    * into `sD` / `topK` as [[countInto]] does, known s_D kept. No
    * [[Pattern]] is read or built.
    *
    * The wave is cut into chunks of whole parents, as many as
    * [[DatasetIndex.chunks]] gives for its slots (at most one per parent),
    * at the parents nearest to equal shares of the slots; more than one
    * chunk is counted on the common ForkJoin pool. Each chunk keeps two
    * prefix stacks, one buffer per constraint level: level `l` holds the
    * AND of the parent's first `l` constraints, over all ⌈n/64⌉ words in
    * the full stack and over the first ⌈k/64⌉ in the head stack. A parent
    * with an unknown slot is loaded into the full stack; one whose slots
    * are all known is read from the full stack if it holds that parent,
    * and loaded into the head stack otherwise. A stack is refreshed from
    * the first level at which the parent differs from the last one it
    * held, and a wave lists siblings' children next to each other, so a
    * parent costs about one pass. Each slot then costs one AND + popcount.
    *
    * Every row holds exactly one value per attribute (the constructor
    * checks), so a parent's s_D is the sum of its children's on one
    * attribute. When every slot of one (parent, attribute) has an
    * unknown s_D, the last value's s_D is the parent's
    * ([[PatternCounter.Parent.sD]]) minus its siblings' sum, and only
    * its top-k is counted. A chunk writes only its own slots, and a count
    * depends only on its parent, its slot and `k`, so the results do not
    * depend on the chunking or on thread timing.
    *
    * @throws IllegalArgumentException if `k < 0`, or a parent's
    *         attributes are not strictly ascending in `[0, width)` or a
    *         value lies outside its attribute's domain
    */
  def countWave(parents: IndexedSeq[PatternCounter.Parent], k: Int, sD: Array[Int], topK: Array[Int]): Unit =
    countWave(parents, k, sD, topK, chunks = 0)

  /** [[countWave]] in `chunks` chunks, or, if `chunks` is 0, in as many
    * as its work gives.
    */
  private[core] def countWave(
      parents: IndexedSeq[PatternCounter.Parent],
      k: Int,
      sD: Array[Int],
      topK: Array[Int],
      chunks: Int,
  ): Unit = {
    require(k >= 0, s"k must be non-negative: $k")
    val starts = slotStarts(parents)
    val n = starts(parents.length)
    val kk = math.min(k, size)
    val c =
      if (chunks > 0) chunks
      else {
        var known = 0
        var i = 0
        while (i < n) {
          if (sD(i) >= 0) known += 1
          i += 1
        }
        math.min(DatasetIndex.chunks(n, nWords, DatasetIndex.Cpus, known, (kk + 63) >>> 6), parents.length)
      }
    if (c <= 1) new Chunk(kk).wave(parents, starts, 0, parents.length, sD, topK)
    else {
      // chunk j starts at the first parent whose slots start at or after j·n/c
      val cuts = Array.tabulate(c + 1) { j =>
        if (j == c) parents.length
        else {
          val target = j.toLong * n / c
          var lo = 0
          var hi = parents.length
          while (lo < hi) {
            val mid = (lo + hi) >>> 1
            if (starts(mid) < target) lo = mid + 1 else hi = mid
          }
          lo
        }
      }
      java.util.stream.IntStream.range(0, c).parallel().forEach { j =>
        new Chunk(kk).wave(parents, starts, cuts(j), cuts(j + 1), sD, topK)
      }
    }
  }

  /** `starts(p)`: the wave's first slot of `parents(p)`; `starts(parents.length)`
    * is the wave's size. Rejects a parent that is not a pattern of this schema.
    */
  private def slotStarts(parents: IndexedSeq[PatternCounter.Parent]): Array[Int] = {
    val starts = new Array[Int](parents.length + 1)
    var p = 0
    while (p < parents.length) {
      val as = parents(p).attrs
      val vs = parents(p).vals
      require(as.length == vs.length, s"parent $p has ${as.length} attributes and ${vs.length} values")
      var last = -1
      var i = 0
      while (i < as.length) {
        val a = as(i)
        require(a > last && a < width && vs(i) >= 0 && vs(i) < words(a).length,
          s"parent $p: constraint ${i + 1} (attribute $a, value ${vs(i)}) is out of order or outside the schema")
        last = a
        i += 1
      }
      starts(p + 1) = starts(p) + offset(width) - offset(last + 1)
      p += 1
    }
    starts
  }

  /** A prefix stack over the first `len` words: `level(l)` holds the AND
    * of the first `l` loaded constraints. Level 0 is [[ones]] and level 1
    * the first constraint's bitset itself; the deeper levels are buffers
    * of this stack, allocated when first reached.
    */
  private final class Stack(len: Int) {
    private val attrs = new Array[Int](width)
    private val vals = new Array[Int](width)
    private val level = new Array[Array[Long]](width + 1)
    level(0) = ones
    private var depth = 0

    /** Number of leading constraints that `as` / `vs`'s first `n` share with the loaded ones. */
    private def common(as: Array[Int], vs: Array[Int], n: Int): Int = {
      val m = math.min(n, depth)
      var d = 0
      while (d < m && attrs(d) == as(d) && vals(d) == vs(d)) d += 1
      d
    }

    /** Whether the stack holds exactly the first `n` constraints of `as` / `vs`. */
    def holds(as: Array[Int], vs: Array[Int], n: Int): Boolean = depth == n && common(as, vs, n) == n

    /** Loads the first `n` constraints of `as` / `vs` from the first level
      * at which they differ from the loaded ones; returns their AND.
      */
    def load(as: Array[Int], vs: Array[Int], n: Int): Array[Long] = {
      var d = common(as, vs, n)
      while (d < n) {
        attrs(d) = as(d)
        vals(d) = vs(d)
        val leaf = words(as(d))(vs(d))
        if (d == 0) level(1) = leaf
        else {
          if (level(d + 1) eq null) level(d + 1) = new Array[Long](len)
          val buf = level(d + 1)
          val prev = level(d)
          var j = 0
          while (j < len) {
            buf(j) = prev(j) & leaf(j)
            j += 1
          }
        }
        d += 1
      }
      depth = n
      level(n)
    }
  }

  /** One chunk's counting state at `kk = min(k, |D|)`: a full and a head
    * [[Stack]], and the per-slot loop both kernel paths share.
    */
  private final class Chunk(kk: Int) {
    private val kFull = kk >>> 6
    private val kMask = (1L << kk) - 1 // low (kk & 63) bits; unused when kk & 63 == 0
    private val full = new Stack(nWords)
    private val head = new Stack((kk + 63) >>> 6)

    /** The AND of the first `n` constraints of `as` / `vs`, from the full
      * stack if `unknown` or if it holds them, else from the head stack.
      */
    private def parent(as: Array[Int], vs: Array[Int], n: Int, unknown: Boolean): Array[Long] =
      if (unknown || full.holds(as, vs, n)) full.load(as, vs, n) else head.load(as, vs, n)

    /** Popcount of `par & leaf` over the first `kk` positions. */
    private def top(par: Array[Long], leaf: Array[Long]): Int = {
      var t = 0
      var j = 0
      while (j < kFull) {
        t += java.lang.Long.bitCount(par(j) & leaf(j))
        j += 1
      }
      if ((kk & 63) != 0) t += java.lang.Long.bitCount(par(kFull) & leaf(kFull) & kMask)
      t
    }

    /** Counts slot `i`, the child of `par` with the bitset `leaf`: its
      * top-k, and its s_D if unknown.
      */
    private def slot(par: Array[Long], leaf: Array[Long], i: Int, sD: Array[Int], topK: Array[Int]): Unit = {
      if (sD(i) < 0) {
        var d = 0
        var j = 0
        while (j < nWords) {
          d += java.lang.Long.bitCount(par(j) & leaf(j))
          j += 1
        }
        sD(i) = d
      }
      topK(i) = top(par, leaf)
    }

    /** Counts the slots of `parents(from until to)`, the first at `starts(from)`. */
    def wave(
        parents: IndexedSeq[PatternCounter.Parent],
        starts: Array[Int],
        from: Int,
        to: Int,
        sD: Array[Int],
        topK: Array[Int],
    ): Unit = {
      var p = from
      while (p < to) {
        val q = parents(p)
        val as = q.attrs
        val n = as.length
        var i = starts(p)
        val end = starts(p + 1)
        var unknown = false
        var j = i
        while (j < end && !unknown) {
          unknown = sD(j) < 0
          j += 1
        }
        if (i < end) {
          val par = parent(as, q.vals, n, unknown)
          var a = if (n == 0) 0 else as(n - 1) + 1
          while (a < width) {
            val leaves = words(a)
            val last = leaves.length - 1
            var subtract = true
            j = i
            while (j <= i + last) {
              if (sD(j) >= 0) subtract = false
              j += 1
            }
            var sum = 0L
            var v = 0
            while (v <= last) {
              if (v == last && subtract) {
                sD(i) = (q.sD - sum).toInt
                topK(i) = top(par, leaves(v))
              } else {
                slot(par, leaves(v), i, sD, topK)
                sum += sD(i)
              }
              v += 1
              i += 1
            }
            a += 1
          }
        }
        p += 1
      }
    }

    /** Counts `patterns(from until to)`, each as the child of its parent. */
    def batch(patterns: IndexedSeq[Pattern], from: Int, to: Int, sD: Array[Int], topK: Array[Int]): Unit = {
      val as = new Array[Int](width)
      val vs = new Array[Int](width)
      var i = from
      while (i < to) {
        val p = patterns(i)
        var n = 0
        var a = 0
        while (a < width) {
          val v = p.vals(a)
          if (v != Pattern.Wildcard) {
            as(n) = a
            vs(n) = v
            n += 1
          }
          a += 1
        }
        if (n == 0) {
          if (sD(i) < 0) sD(i) = size
          topK(i) = kk
        } else slot(parent(as, vs, n - 1, sD(i) < 0), words(as(n - 1))(vs(n - 1)), i, sD, topK)
        i += 1
      }
    }
  }

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
