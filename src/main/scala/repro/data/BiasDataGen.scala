package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

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

  /** A generated dataset ready for the detection pipeline. */
  final case class RankedDataset(
      name: String,
      df: DataFrame,
      attrCols: IndexedSeq[String],
      rankCol: String,
      scoreCol: String,
      idCol: String,
  )

  /** Uniform(0,1) derived from the row id and a stream id by Murmur3
    * hashing — unlike Spark's `rand`, independent of the partition
    * layout, so generation is deterministic in (n, seed) alone.
    */
  private def unif(stream: Long): Column =
    (pmod(hash(col("row_id"), lit(stream)).cast("long"), lit(1000003L)) + lit(0.5)) / lit(1000003.0)

  /** Standard normal via Box–Muller over two hash streams. */
  private def gaussian(stream: Long): Column =
    sqrt(lit(-2.0) * log(unif(stream))) * cos(lit(2.0 * math.Pi) * unif(stream + 1))

  /** Draw a categorical value for `spec` from uniform randomness `r`. */
  private def draw(spec: AttrSpec, r: Column): Column =
    if (spec.probs.isEmpty) least(lit(spec.card - 1), floor(r * spec.card).cast("int"))
    else {
      val cdf = spec.probs.scanLeft(0.0)(_ + _).tail
      cdf.init.zipWithIndex.reverse.foldLeft(lit(spec.card - 1): Column) {
        case (acc, (c, i)) => when(r < lit(c), lit(i)).otherwise(acc)
      }
    }

  /** Generate `n` rows with the given attributes, score them, rank them.
    *
    * score = Σ_j weight_j · value_j/(card_j−1) + noise · randn
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
    val base = spark.range(n).withColumnRenamed("id", "row_id")
    val latentZ = gaussian(seed * 1000L + 999983L)
    val withAttrs = specs.zipWithIndex.foldLeft(base) { case (df, (spec, j)) =>
      val r =
        if (spec.latentCorr == 0.0) unif(seed * 1000L + 2L * j)
        else {
          // Gaussian copula with the shared latent: the combined z-score
          // stays standard normal, and the logistic approximation of Φ
          // maps it back to (0,1) so the declared marginals survive.
          val rho = spec.latentCorr
          val z = lit(math.sqrt(1 - rho * rho)) * gaussian(seed * 1000L + 2L * j) +
            lit(rho) * latentZ
          lit(1.0) / (lit(1.0) + exp(lit(-1.702) * z))
        }
      df.withColumn(spec.name, draw(spec, r))
    }
    val score = specs
      .filter(_.weight != 0.0)
      .map(s => lit(s.weight) * col(s.name) / lit((s.card - 1).toDouble))
      .reduceOption(_ + _)
      .getOrElse(lit(0.0)) + lit(noise) * gaussian(seed * 1000L + 7919L)
    val scored = withAttrs.withColumn("score", score)
    val ranked = Ranker.byScore(scored, "score", "row_id").cache()
    RankedDataset(name, ranked, specs.map(_.name).toIndexedSeq, "rank", "score", "row_id")
  }

  /** COMPAS-like: 6,889 rows, 16 attributes; the first seven are the
    * bucketized scoring attributes of [4] (days-from-compas, juvenile
    * convictions, days-before-screening-arrest, start, end, age,
    * priors), with age contributing negatively as in the paper.
    */
  def compasLike(spark: SparkSession, nAttrs: Int = 16, n: Long = 6889, seed: Long = 42): RankedDataset = {
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
    val specs = (scoring ++ filler).take(nAttrs)
    generate(spark, "compas", n, specs, noise = 0.10, seed = seed)
  }

  /** Student-like: 395 rows, 33 attributes. The first four (school, sex,
    * age, address) carry the real dataset's marginals (GP 349/395,
    * M 208/395, U 307/395) for the §VI-D case study; the ranking is
    * dominated by the final-grade attribute G3 with correlated period
    * grades G1/G2 and a mother's-education effect, as in the paper's
    * Shapley analysis.
    */
  def studentLike(spark: SparkSession, nAttrs: Int = 33, n: Long = 395, seed: Long = 7): RankedDataset = {
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
    val specs = (head ++ grades ++ filler).take(nAttrs)
    generate(spark, "student", n, specs, noise = 0.15, seed = seed)
  }

  /** German-Credit-like: 1,000 rows, 20 attributes; account status,
    * duration, credit amount and installment rate drive the
    * creditworthiness score (the attributes the paper's Shapley analysis
    * surfaces).
    */
  def germanLike(spark: SparkSession, nAttrs: Int = 20, n: Long = 1000, seed: Long = 11): RankedDataset = {
    // shared latent = overall financial standing
    val scoring = Seq(
      AttrSpec("status_account", 4, weight = 0.50, probs = Seq(0.27, 0.27, 0.06, 0.40), latentCorr = 0.4),
      AttrSpec("duration", 4, weight = 0.40, latentCorr = 0.3),
      AttrSpec("credit_amount", 4, weight = 0.35, latentCorr = 0.3),
      AttrSpec("installment_rate", 4, weight = 0.30),
    )
    val fillerCards = Seq(3, 2, 4, 2, 3, 2, 4, 3, 2, 3, 2, 4, 2, 3, 2, 3)
    val filler = fillerCards.zipWithIndex.map { case (c, i) => AttrSpec(s"attr_${i + 5}", c) }
    val specs = (scoring ++ filler).take(nAttrs)
    generate(spark, "german", n, specs, noise = 0.10, seed = seed)
  }

  /** COMPAS-like dataset with `n` rows (all 16 attributes). */
  def compasScaled(spark: SparkSession, n: Long, seed: Long = 42): RankedDataset =
    compasLike(spark, nAttrs = 16, n = n, seed = seed)
}
