package repro.data

import org.apache.spark.sql.{Column, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.BiasDataGen.{AttrSpec, RankedDataset}

/** The synthetic-data generator written as Spark SQL `Column`
  * expressions: the reference that [[BiasDataGen.generate]]'s per-row
  * function must reproduce bit for bit (same columns, same `score`
  * doubles, same ranks).
  */
object GeneratorOracle {

  /** Uniform(0,1) derived from the row id and a stream id by Murmur3. */
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

  /** Same contract as [[BiasDataGen.generate]]. */
  def generate(
      spark: SparkSession,
      name: String,
      n: Long,
      specs: Seq[AttrSpec],
      noise: Double,
      seed: Long,
  ): RankedDataset = {
    val base = spark.range(n).withColumnRenamed("id", "row_id")
    val latentZ = gaussian(seed * 1000L + 999983L)
    val withAttrs = specs.zipWithIndex.foldLeft(base) { case (df, (spec, j)) =>
      val r =
        if (spec.latentCorr == 0.0) unif(seed * 1000L + 2L * j)
        else {
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
    RankedDataset(name, ranked, specs.map(_.name).toIndexedSeq, "rank")
  }
}
