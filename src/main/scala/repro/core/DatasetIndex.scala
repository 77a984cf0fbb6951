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
  * attribute-value. [[countWave]], the index's one counting method, counts
  * a wave of children from the parents' constraints, only the slots each
  * parent lists, each child with one AND + popcount pass over its
  * parent's AND. s_D does not depend on k: a
  * child whose s_D the caller already knows costs only the first ⌈k/64⌉
  * words, and so does its parent's AND, taken from the leaf words; the
  * ANDs of parents with unknown children are kept on a prefix stack. The
  * last value of an attribute whose siblings are all counted gets its s_D
  * by subtraction from a known parent s_D. A large wave is split into
  * contiguous chunks counted in parallel on the common ForkJoin pool, each
  * with its own buffers; the results are the same as the sequential loop's.
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

  /** `leaves(offset(a) + v)`: `words(a)(v)`, one (attribute, value) pair
    * after the other, so that a parent's slot `s` is `leaves(offset(maxIdx + 1) + s)`.
    */
  private val leaves: Array[Array[Long]] = words.flatten

  /** `group(g)`: the domain size of pair `g`'s attribute if `g` is its
    * first value, else 0.
    */
  private val group: Array[Int] = {
    val gs = new Array[Int](offset(width))
    for (a <- 0 until width if domainSizes(a) > 0) gs(offset(a)) = domainSizes(a)
    gs
  }

  /** The AND of no constraint: every word all ones. Bits past |D| are
    * set too, but every leaf has them clear.
    */
  private val ones: Array[Long] = Array.fill(nWords)(-1L)

  /** The wave kernel, [[PatternCounter.countWave]]: counts the listed
    * children of `parents` ([[PatternCounter.Parent.slots]]), parent by
    * parent, into `sD` / `topK`: `topK(i)` receives the wave's `i`-th
    * listed slot's s_{R^k(D)}, and `sD(i)` its s_D if `sD(i)` is negative
    * on entry ([[PatternCounter.Unknown]]); a known s_D is kept. A slot
    * that is not listed costs nothing. No [[Pattern]] is read or built.
    *
    * The wave is cut into chunks of whole parents, as many as
    * [[DatasetIndex.chunks]] gives for its listed slots (at most one per
    * parent), at the parents nearest to equal shares of those slots; more
    * than one chunk is counted on the common ForkJoin pool. A parent
    * whose listed slots all have a known s_D needs only top-k counts: its
    * AND over the first ⌈k/64⌉ words is taken from its constraints' leaf
    * words directly. A wave whose slots are all known (a search reaching
    * nodes counted at an earlier k) is counted so without looking at a
    * slot's s_D. A parent with an unknown slot is loaded into the chunk's
    * prefix stack, one buffer per constraint level: level `l` holds the
    * AND of the parent's first `l` constraints over all ⌈n/64⌉ words. The
    * stack is refreshed from the first level at which the parent differs
    * from the last one it held, and a wave lists siblings' children next
    * to each other, so a parent costs about one pass. Either way one loop
    * over the parent's listed slots then costs each one AND + popcount
    * over the words it needs.
    *
    * Every row holds exactly one value per attribute (the constructor
    * checks), so a parent's s_D is the sum of its children's on one
    * attribute. When the parent's s_D ([[PatternCounter.Parent.sD]]) is
    * known and its list holds every value of one attribute, all with an
    * unknown s_D, the last value's s_D is the parent's minus its
    * siblings' sum, and only its top-k is counted. A chunk writes only its
    * own slots, and a count depends only on its parent, its slot and `k`,
    * so the results do not depend on the chunking or on thread timing.
    *
    * @throws IllegalArgumentException if `k < 0`, a parent's attributes
    *         are not strictly ascending in `[0, width)`, a value lies
    *         outside its attribute's domain, or a parent's slot list is
    *         not strictly ascending within its search-tree children
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
    var known = 0
    var i = 0
    while (i < n) {
      if (sD(i) >= 0) known += 1
      i += 1
    }
    val allKnown = known == n
    val c =
      if (chunks > 0) chunks
      else math.min(DatasetIndex.chunks(n, nWords, DatasetIndex.Cpus, known, (kk + 63) >>> 6), parents.length)
    if (c <= 1) new Chunk(kk).wave(parents, starts, 0, parents.length, sD, topK, allKnown)
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
        new Chunk(kk).wave(parents, starts, cuts(j), cuts(j + 1), sD, topK, allKnown)
      }
    }
  }

  /** `starts(p)`: the wave's first slot of `parents(p)`; `starts(parents.length)`
    * is the wave's size. Rejects a parent that is not a pattern of this
    * schema, and a slot list that is not strictly ascending within the
    * parent's search-tree children.
    */
  private def slotStarts(parents: IndexedSeq[PatternCounter.Parent]): Array[Int] = {
    val starts = new Array[Int](parents.length + 1)
    var p = 0
    while (p < parents.length) {
      val as = parents(p).attrs
      val vs = parents(p).vals
      // `if`/`throw`, not `require`: a message closure would box the loop's vars
      if (as.length != vs.length)
        throw new IllegalArgumentException(s"parent $p has ${as.length} attributes and ${vs.length} values")
      var last = -1
      var i = 0
      while (i < as.length) {
        val a = as(i)
        if (a <= last || a >= width || vs(i) < 0 || vs(i) >= words(a).length) throw new IllegalArgumentException(
          s"parent $p: constraint ${i + 1} (attribute $a, value ${vs(i)}) is out of order or outside the schema")
        last = a
        i += 1
      }
      val all = offset(width) - offset(last + 1)
      val ss = parents(p).slots
      var prev = -1
      i = 0
      while (i < ss.length) {
        if (ss(i) < 0 || ss(i) >= all) throw new IllegalArgumentException(
          s"parent $p: listed slot ${i + 1} (${ss(i)}) is outside [0, $all)")
        if (ss(i) <= prev) throw new IllegalArgumentException(
          s"parent $p: listed slot ${i + 1} (${ss(i)}) is not above the one before it ($prev)")
        prev = ss(i)
        i += 1
      }
      starts(p + 1) = starts(p) + ss.length
      p += 1
    }
    starts
  }

  /** A prefix stack over all ⌈n/64⌉ words: `level(l)` holds the AND of
    * the first `l` loaded constraints. Level 0 is [[ones]] and level 1 the
    * first constraint's bitset itself; the deeper levels are buffers of
    * this stack, allocated when first reached.
    */
  private final class Stack {
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
          if (level(d + 1) eq null) level(d + 1) = new Array[Long](nWords)
          val buf = level(d + 1)
          val prev = level(d)
          var j = 0
          while (j < nWords) {
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

  /** One chunk's counting state at `kk = min(k, |D|)`: a [[Stack]] for
    * parents with unknown slots and a ⌈k/64⌉-word buffer for the others.
    */
  private final class Chunk(kk: Int) {
    private val kFull = kk >>> 6
    private val kMask = (1L << kk) - 1 // low (kk & 63) bits; unused when kk & 63 == 0
    private val full = new Stack
    private val head = new Array[Long]((kk + 63) >>> 6)

    /** The AND of the first `n` constraints of `as` / `vs` over the first
      * ⌈k/64⌉ words, taken from their leaf words into [[head]].
      */
    private def loadHead(as: Array[Int], vs: Array[Int], n: Int): Array[Long] = {
      java.util.Arrays.fill(head, -1L)
      var d = 0
      while (d < n) {
        val leaf = words(as(d))(vs(d))
        var j = 0
        while (j < head.length) {
          head(j) &= leaf(j)
          j += 1
        }
        d += 1
      }
      head
    }

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

    /** Popcount of `par & leaf` over all ⌈n/64⌉ words. */
    private def size(par: Array[Long], leaf: Array[Long]): Int = {
      var d = 0
      var j = 0
      while (j < nWords) {
        d += java.lang.Long.bitCount(par(j) & leaf(j))
        j += 1
      }
      d
    }

    /** Counts the listed slots of `parents(from until to)`, the first at
      * `starts(from)`; with `allKnown`, every slot's s_D is known.
      */
    def wave(
        parents: IndexedSeq[PatternCounter.Parent],
        starts: Array[Int],
        from: Int,
        to: Int,
        sD: Array[Int],
        topK: Array[Int],
        allKnown: Boolean,
    ): Unit = {
      var p = from
      while (p < to) {
        val start = starts(p)
        val end = starts(p + 1)
        if (start < end) {
          var known = allKnown
          if (!known) {
            var j = start
            while (j < end && sD(j) >= 0) j += 1
            known = j == end
          }
          val q = parents(p)
          val n = q.attrs.length
          if (known) listed(q, loadHead(q.attrs, q.vals, n), start, sD, topK, subtract = false)
          else listed(q, full.load(q.attrs, q.vals, n), start, sD, topK, subtract = q.sD >= 0)
        }
        p += 1
      }
    }

    /** The one slot loop: counts `q`'s listed slots, the first at wave
      * position `first`, from `par`, its AND over the first ⌈k/64⌉ words
      * if all of them have a known s_D, else over all ⌈n/64⌉. With
      * `subtract` (`q`'s s_D is known), the last value of an attribute
      * whose values the list holds all, each with an unknown s_D, gets
      * its s_D by subtraction.
      */
    private def listed(
        q: PatternCounter.Parent,
        par: Array[Long],
        first: Int,
        sD: Array[Int],
        topK: Array[Int],
        subtract: Boolean,
    ): Unit = {
      val ss = q.slots
      val as = q.attrs
      val base = if (as.length == 0) 0 else offset(as(as.length - 1) + 1)
      var last = -1 // the wave position whose s_D is taken by subtraction
      var sum = 0L // the s_D counted since the first value of last's attribute
      var j = 0
      while (j < ss.length) {
        val g = base + ss(j)
        val i = first + j
        val leaf = leaves(g)
        val d = group(g)
        if (subtract && d > 0 && j + d <= ss.length && ss(j + d - 1) == ss(j) + d - 1) {
          var u = i
          while (u < i + d && sD(u) < 0) u += 1
          if (u == i + d) {
            last = u - 1
            sum = 0L
          }
        }
        if (i == last) sD(i) = (q.sD - sum).toInt
        else if (sD(i) < 0) {
          sD(i) = size(par, leaf)
          sum += sD(i)
        }
        topK(i) = top(par, leaf)
        j += 1
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

  /** Work (slots × words) from which a wave is counted in parallel.
    * Below it, forking chunks costs more than it saves.
    */
  private[core] final val ParallelWork: Long = 1L << 18

  private[core] val Cpus: Int = Runtime.getRuntime.availableProcessors

  /** Number of chunks for a wave of `patterns` slots over `nWords`-word
    * bitsets on `cpus` processors, `known` of which have a known s_D and
    * read only `kWords` words: 1 (the calling thread alone) for small
    * waves or one CPU, else `4 × cpus` (at most one per slot), so that
    * uneven chunks still balance across the pool.
    */
  private[core] def chunks(patterns: Int, nWords: Int, cpus: Int, known: Int = 0, kWords: Int = 0): Int =
    if (cpus <= 1 || (patterns - known).toLong * nWords + known.toLong * kWords < ParallelWork) 1
    else math.min(4 * cpus, patterns)
}
