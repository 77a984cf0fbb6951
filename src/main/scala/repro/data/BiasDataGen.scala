package repro.data

import org.apache.spark.sql.{DataFrame, Encoders, Row, SparkSession}
import org.apache.spark.sql.catalyst.expressions.GenericRow
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.hash.Murmur3_x86_32

import scala.collection.mutable

/** Synthetic stand-ins for the paper's three real evaluation datasets
  * (COMPAS, Student Performance, German Credit), which we cannot ship.
  *
  * Each generator is deterministic in its seed and reproduces the
  * characteristics the experiments depend on (see DESIGN.md §2):
  * the row count, the number of pattern attributes and their domain
  * sizes (2–4 after the paper's bucketization), and a score-based
  * ranking in which a known subset of attributes drives the score — so
  * some demographic-like groups are genuinely under-represented in the
  * top-k and the Shapley analysis has a ground truth to recover.
  *
  * An attribute with non-zero [[AttrSpec.weight]] contributes
  * `weight · value/(card−1)` to the ranking score; zero-weight
  * attributes are noise/demographic attributes. Skewed marginals are
  * expressed with explicit category probabilities.
  */
object BiasDataGen {

  /** Specification of one categorical attribute.
    *
    * @param name       column name
    * @param card       number of categories (active domain size)
    * @param weight     contribution of the normalized value to the ranking
    *                   score (0 for non-scoring attributes; negative inverts)
    * @param probs      category probabilities; uniform when empty
    * @param latentCorr Gaussian-copula correlation with the dataset's
    *                   shared latent factor, in [-1, 1]. Real datasets'
    *                   attributes are correlated (e.g. COMPAS age vs
    *                   priors); this reproduces that while approximately
    *                   preserving the declared marginals.
    */
  final case class AttrSpec(
      name: String,
      card: Int,
      weight: Double = 0.0,
      probs: Seq[Double] = Seq.empty,
      latentCorr: Double = 0.0,
  ) {
    require(card >= 2, s"$name: categorical attributes need ≥ 2 values")
    require(probs.isEmpty || probs.length == card, s"$name: probs/card mismatch")
    require(latentCorr >= -1 && latentCorr <= 1, s"$name: latentCorr out of [-1,1]")
  }

  /** A generated dataset ready for the detection pipeline, with the
    * columns of [[schema]].
    */
  final case class RankedDataset(name: String, df: DataFrame, attrCols: IndexedSeq[String], rankCol: String)

  /** Schema of a generated dataset: `row_id`, one int column per
    * attribute, `score`, nullable as Spark SQL types an expression over
    * `log`, and `rank`, the non-null int of `row_number`.
    */
  private def schema(specs: Seq[AttrSpec]): StructType =
    StructType(
      StructField("row_id", LongType, nullable = false) +:
        specs.map(s => StructField(s.name, IntegerType, nullable = false)) :+
        StructField("score", DoubleType, nullable = true) :+
        StructField("rank", IntegerType, nullable = false))

  /** Generate `n` rows with the given attributes, score them, rank them.
    *
    * score = Σ_j weight_j · value_j/(card_j−1) + noise · randn
    *
    * One Spark job, a plain RDD map over the row ids, collects each row's
    * score as one `Array[Double]` per partition, in `row_id` order, and the
    * driver ranks them ([[ranks]]). The frame is an uncached map over
    * `spark.range(n)` that draws each row again with its rank, so it keeps
    * the range's partitions: a row is a pure function of `(row_id, seed)`
    * (a [[RowDraw]], which the JIT compiles, unlike the same draws as
    * Catalyst expressions; DESIGN.md §2). `n` must lie in
    * [0, Int.MaxValue]: the ranks are one driver array.
    */
  def generate(
      spark: SparkSession,
      name: String,
      n: Long,
      specs: Seq[AttrSpec],
      noise: Double,
      seed: Long,
  ): RankedDataset = {
    require(specs.map(_.name).distinct.size == specs.size, "duplicate attribute names")
    require(n >= 0 && n <= Int.MaxValue, s"row count $n is outside [0, ${Int.MaxValue}]")
    val draw = new RowDraw(specs, noise, seed)
    val sc = spark.sparkContext
    // collected in row_id order: the range's partitions hold consecutive ids
    val scores = sc.range(0, n, 1, sc.defaultParallelism).mapPartitions { ids =>
      val out = new mutable.ArrayBuilder.ofDouble
      while (ids.hasNext) out += draw.score(ids.next())
      Iterator.single(out.result())
    }.collect()
    val rank = ranks(Array.concat(scores.toIndexedSeq: _*))
    val df = spark.range(n).map((id: java.lang.Long) => draw(id, rank(id.toInt)))(Encoders.row(schema(specs)))
    RankedDataset(name, df.toDF(), specs.map(_.name).toIndexedSeq, "rank")
  }

  /** The 1-based rank of each row id, an index of `scores`: its place in
    * a stable sort by score descending under Spark SQL's double ordering
    * (`SQLOrderingUtil.compareDoubles`: NaN first, −0.0 equal to 0.0), so
    * ties keep row-id order, as `row_number() OVER (ORDER BY score DESC,
    * row_id)` ranks them.
    *
    * Each score maps to a `long` key whose signed order is that ordering
    * reversed; the keys are sorted as primitives, each id's tie block
    * starts at the first place of its key (a binary search), and a counter
    * per block hands out the block's places in row-id order.
    */
  private[data] def ranks(scores: Array[Double]): Array[Int] = {
    val n = scores.length
    val key = new Array[Long](n)
    var i = 0
    while (i < n) { key(i) = descendingKey(scores(i)); i += 1 }
    val sorted = key.clone()
    java.util.Arrays.sort(sorted)
    val taken = new Array[Int](n)
    val rank = new Array[Int](n)
    i = 0
    while (i < n) {
      val first = firstIndexOf(sorted, key(i))
      rank(i) = first + taken(first) + 1
      taken(first) += 1
      i += 1
    }
    rank
  }

  /** A key whose signed order is the reverse of `compareDoubles`: NaNs
    * share one key, the smallest, and −0.0 shares 0.0's.
    */
  private def descendingKey(d: Double): Long = {
    // doubleToLongBits folds every NaN into one pattern; + 0.0 turns −0.0 into 0.0
    val bits = java.lang.Double.doubleToLongBits(d + 0.0)
    // flipping the magnitude bits of negatives makes the signed order the doubles' order
    ~(bits ^ ((bits >> 63) & Long.MaxValue))
  }

  /** The first index of `k` in the sorted `a`, which holds it. */
  private def firstIndexOf(a: Array[Long], k: Long): Int = {
    var lo = 0
    var hi = a.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (a(mid) < k) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** One generated row as a function of its row id.
    *
    * Randomness is a Uniform(0,1) derived from the row id and a stream id
    * by Murmur3 hashing; unlike Spark's `rand`, it does not depend on the
    * partition layout, so generation is deterministic in (n, seed) alone.
    * Attribute `j` draws from stream `1000·seed + 2j` (a Gaussian also
    * reads stream `+ 1`), the shared latent from `1000·seed + 999983` and
    * the score noise from `1000·seed + 7919`.
    *
    * The arithmetic is that of the Spark SQL expressions
    * `(pmod(hash(row_id, stream), 1000003) + 0.5) / 1000003.0` for a
    * uniform and `sqrt(-2·log u₁) · cos(2π·u₂)` for a normal, with the
    * same library calls (`StrictMath` for `log` and `exp`, `Math` for
    * `sqrt` and `cos`) and the same order of operations, so the data are
    * bit-identical to an expression-built generator's.
    */
  private[data] final class RowDraw(specs: Seq[AttrSpec], noise: Double, seed: Long) extends Serializable {
    private val m = specs.length
    private val card = specs.map(_.card).toArray
    private val stream = Array.tabulate(m)(j => seed * 1000L + 2L * j)
    private val rho = specs.map(_.latentCorr).toArray
    private val rhoC = rho.map(r => math.sqrt(1 - r * r))
    /** Cumulative probabilities below the last category; empty for a uniform attribute. */
    private val cdf = specs.map(s =>
      if (s.probs.isEmpty) Array.emptyDoubleArray else s.probs.scanLeft(0.0)(_ + _).tail.init.toArray).toArray
    private val scoring = specs.indices.filter(specs(_).weight != 0.0).toArray
    private val weight = specs.map(_.weight).toArray
    private val latentStream = seed * 1000L + 999983L
    private val noiseStream = seed * 1000L + 7919L

    private def unif(rowId: Long, stream: Long): Double = {
      val h = Murmur3_x86_32.hashLong(stream, Murmur3_x86_32.hashLong(rowId, 42))
      (java.lang.Math.floorMod(h.toLong, 1000003L) + 0.5) / 1000003.0
    }

    private def gaussian(rowId: Long, stream: Long): Double =
      java.lang.Math.sqrt(-2.0 * java.lang.StrictMath.log(unif(rowId, stream))) *
        java.lang.Math.cos(2.0 * math.Pi * unif(rowId, stream + 1))

    /** Category of attribute `j` in row `rowId`, given the row's shared latent. */
    private def category(rowId: Long, j: Int, latentZ: Double): Int = {
      val r =
        if (rho(j) == 0.0) unif(rowId, stream(j))
        else {
          // Gaussian copula with the shared latent: the combined z-score
          // stays standard normal, and the logistic approximation of Φ
          // maps it back to (0,1) so the declared marginals survive.
          val z = rhoC(j) * gaussian(rowId, stream(j)) + rho(j) * latentZ
          1.0 / (1.0 + java.lang.StrictMath.exp(-1.702 * z))
        }
      val c = cdf(j)
      if (c.isEmpty) math.min(card(j) - 1, math.floor(r * card(j)).toInt)
      else {
        var i = 0
        while (i < c.length && !(r < c(i))) i += 1
        i
      }
    }

    /** The score of row `rowId`, whose scoring attributes hold `value`. */
    private def total(rowId: Long, value: Array[Int]): Double = {
      // summed left to right, one term per scoring attribute
      var score = 0.0
      var t = 0
      while (t < scoring.length) {
        val a = scoring(t)
        val term = weight(a) * value(a) / (card(a) - 1).toDouble
        score = if (t == 0) term else score + term
        t += 1
      }
      score + noise * gaussian(rowId, noiseStream)
    }

    /** Row `rowId`'s score, drawing its scoring attributes only: the
      * `score` column of `apply(rowId, _)`, bit for bit.
      */
    def score(rowId: Long): Double = {
      val latentZ = gaussian(rowId, latentStream)
      val value = new Array[Int](m)
      var t = 0
      while (t < scoring.length) {
        value(scoring(t)) = category(rowId, scoring(t), latentZ)
        t += 1
      }
      total(rowId, value)
    }

    /** Row `rowId` in the column order of [[schema]], `rank` last. */
    def apply(rowId: Long, rank: Int): Row = {
      val out = new Array[Any](m + 3)
      out(0) = rowId
      val latentZ = gaussian(rowId, latentStream)
      val value = new Array[Int](m)
      var j = 0
      while (j < m) {
        value(j) = category(rowId, j, latentZ)
        out(j + 1) = value(j)
        j += 1
      }
      out(m + 1) = total(rowId, value)
      out(m + 2) = rank
      new GenericRow(out)
    }
  }

  /** COMPAS-like: 6,889 rows, 16 attributes; the first seven are the
    * bucketized scoring attributes of [4] (days-from-compas, juvenile
    * convictions, days-before-screening-arrest, start, end, age,
    * priors), with age contributing negatively as in the paper.
    */
  def compasLike(spark: SparkSession, nAttrs: Int = 16, n: Long = 6889, seed: Long = 42): RankedDataset =
    generate(spark, "compas", n, compasSpecs(nAttrs), noise = 0.10, seed = seed)

  private[data] def compasSpecs(nAttrs: Int): Seq[AttrSpec] = {
    // The shared latent plays the role of "criminal history": priors and
    // the end-date load on it positively, age negatively (younger
    // defendants have more recent records) — reproducing the real
    // COMPAS correlations the paper's Figure 10b analysis relies on.
    val scoring = Seq(
      AttrSpec("days_from_compas", 3, weight = 0.40),
      AttrSpec("juv_other_count", 3, weight = 0.30, probs = Seq(0.7, 0.2, 0.1), latentCorr = 0.3),
      AttrSpec("days_b_screening", 4, weight = 0.30),
      AttrSpec("c_start", 3, weight = 0.25),
      AttrSpec("c_end", 3, weight = 0.50, probs = Seq(0.5, 0.3, 0.2), latentCorr = 0.5),
      AttrSpec("age_bucket", 4, weight = -0.25, probs = Seq(0.35, 0.30, 0.20, 0.15), latentCorr = -0.5),
      AttrSpec("priors_count", 4, weight = 0.60, probs = Seq(0.45, 0.30, 0.15, 0.10), latentCorr = 0.6),
    )
    val fillerCards = Seq(2, 3, 2, 4, 2, 3, 3, 2, 4)
    val filler = fillerCards.zipWithIndex.map { case (c, i) => AttrSpec(s"attr_${i + 8}", c) }
    (scoring ++ filler).take(nAttrs)
  }

  /** Student-like: 395 rows, 33 attributes. The first four (school, sex,
    * age, address) carry the real dataset's marginals (GP 349/395,
    * M 208/395, U 307/395) for the §VI-D case study; the ranking is
    * dominated by the final-grade attribute G3 with correlated period
    * grades G1/G2 and a mother's-education effect, as in the paper's
    * Shapley analysis.
    */
  def studentLike(spark: SparkSession, nAttrs: Int = 33, n: Long = 395, seed: Long = 7): RankedDataset =
    generate(spark, "student", n, studentSpecs(nAttrs), noise = 0.15, seed = seed)

  private[data] def studentSpecs(nAttrs: Int): Seq[AttrSpec] = {
    val head = Seq(
      AttrSpec("school", 2, probs = Seq(0.89, 0.11)),                  // GP, MS (MS < τ_s=50)
      AttrSpec("sex", 2, weight = 0.08, probs = Seq(0.473, 0.527)),    // F, M
      // older students repeated years in the real data → grades drop
      AttrSpec("age", 4, probs = Seq(0.47, 0.33, 0.10, 0.10), latentCorr = -0.25),
      AttrSpec("address", 2, weight = 0.10, probs = Seq(0.223, 0.777)), // R, U
      // ability latent: grades load on it strongly (G1/G2/G3 are highly
      // correlated in the real data [13]); mother's education mildly
      AttrSpec("Medu", 4, weight = 0.05, probs = Seq(0.15, 0.25, 0.30, 0.30), latentCorr = 0.3),
      AttrSpec("Fedu", 4, probs = Seq(0.15, 0.25, 0.30, 0.30)),
    )
    val grades = Seq(
      AttrSpec("G1", 4, weight = 0.30, latentCorr = 0.8),
      AttrSpec("G2", 4, weight = 0.30, latentCorr = 0.8),
      AttrSpec("G3", 4, weight = 1.50, latentCorr = 0.8),
    )
    val fillerCards = Iterator.continually(Seq(2, 3, 2, 4, 3)).flatten
    val filler = fillerCards.take(24).zipWithIndex.map { case (c, i) => AttrSpec(s"attr_${i + 10}", c) }.toSeq
    // grades precede the filler so truncated schemas keep the attributes
    // that actually drive the ranking
    (head ++ grades ++ filler).take(nAttrs)
  }

  /** German-Credit-like: 1,000 rows, 20 attributes; account status,
    * duration, credit amount and installment rate drive the
    * creditworthiness score (the attributes the paper's Shapley analysis
    * surfaces).
    */
  def germanLike(spark: SparkSession, nAttrs: Int = 20, n: Long = 1000, seed: Long = 11): RankedDataset =
    generate(spark, "german", n, germanSpecs(nAttrs), noise = 0.10, seed = seed)

  private[data] def germanSpecs(nAttrs: Int): Seq[AttrSpec] = {
    // shared latent = overall financial standing
    val scoring = Seq(
      AttrSpec("status_account", 4, weight = 0.50, probs = Seq(0.27, 0.27, 0.06, 0.40), latentCorr = 0.4),
      AttrSpec("duration", 4, weight = 0.40, latentCorr = 0.3),
      AttrSpec("credit_amount", 4, weight = 0.35, latentCorr = 0.3),
      AttrSpec("installment_rate", 4, weight = 0.30),
    )
    val fillerCards = Seq(3, 2, 4, 2, 3, 2, 4, 3, 2, 3, 2, 4, 2, 3, 2, 3)
    val filler = fillerCards.zipWithIndex.map { case (c, i) => AttrSpec(s"attr_${i + 5}", c) }
    (scoring ++ filler).take(nAttrs)
  }

  /** COMPAS-like dataset with `n` rows (all 16 attributes). */
  def compasScaled(spark: SparkSession, n: Long, seed: Long = 42): RankedDataset =
    compasLike(spark, nAttrs = 16, n = n, seed = seed)
}
