package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** Shared session bootstrap for the spark-submit entrypoints (one main
  * per reproduced table; see DESIGN.md §3 and EXPERIMENTS.md).
  */
object JobSession {
  def apply(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  def timeoutMs: Long = sys.env.getOrElse("REPRO_TIMEOUT_MS", "30000").toLong
}

/** T1 — Figures 4–5: running time vs number of attributes. */
object T1AttributesJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("repro-t1")
    val rows = Experiments.t1Attributes(spark, JobSession.timeoutMs)
    println(Experiments.renderTimings("T1 / Figures 4-5: runtime vs #attributes", rows))
    println(Experiments.renderUnder100(rows))
    spark.stop()
  }
}

/** T2 — Figures 6–7: running time vs size threshold τ_s. */
object T2ThresholdJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("repro-t2")
    val rows = Experiments.t2Threshold(spark, JobSession.timeoutMs)
    println(Experiments.renderTimings("T2 / Figures 6-7: runtime vs size threshold", rows))
    spark.stop()
  }
}

/** T3 — Figures 8–9: running time vs range of k, plus examined-pattern gains. */
object T3KRangeJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("repro-t3")
    val rows = Experiments.t3KRange(spark, JobSession.timeoutMs)
    println(Experiments.renderTimings("T3 / Figures 8-9: runtime vs k range", rows))
    println(Experiments.renderGains(Experiments.examinedGains(rows)))
    spark.stop()
  }
}

/** T4 — Figure 10a–c: aggregated Shapley values of detected groups. */
object T4ShapleyJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("repro-t4")
    for ((name, ex) <- Experiments.t4Shapley(spark)) println(Experiments.renderShapley(name, ex))
    spark.stop()
  }
}

/** T5 — Figure 10d–f: value distribution of the top-Shapley attribute. */
object T5DistributionsJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("repro-t5")
    for ((name, ex) <- Experiments.t4Shapley(spark)) println(Experiments.renderDistribution(name, ex))
    spark.stop()
  }
}

/** T6 — Section VI-D case study vs the divergence method of [27]. */
object T6CaseStudyJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("repro-t6")
    println(Experiments.renderCaseStudy(Experiments.t6CaseStudy(spark)))
    spark.stop()
  }
}
