package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.{BiasDataGen, Encoding}
import repro.divergence.DivergenceExplorer
import repro.shapley.ResultAnalysis

/** Experiment runners reproducing the paper's evaluation (Section VI):
  * one public entry point per reproduced table, run by the bench suites
  * and printed by [[Tables]]. Paper reference numbers are recorded
  * alongside measurements in EXPERIMENTS.md.
  */
object Experiments {

  /** Paper defaults (Section VI-A): τ_s = 50, k ∈ [10, 49], step lower
    * bounds for the global problem, α = 0.8 for the proportional one.
    */
  val DefaultTauS = 50L
  val DefaultKMin = 10
  val DefaultKMax = 49
  val DefaultAlpha = 0.8

  /** One timed detection run. */
  final case class TimingRow(
      dataset: String,
      problem: String, // "global" | "prop"
      algo: String,    // "IterTD" | "GlobalBounds" | "PropBounds"
      paramName: String,
      param: Long,
      millis: Long,
      timedOut: Boolean,
      examined: Long,
      resCells: Seq[Int], // |Res[k]| for each computed k
  )

  /** The three evaluation datasets (synthetic stand-ins, DESIGN.md §2). */
  def datasets(spark: SparkSession): Seq[BiasDataGen.RankedDataset] =
    Seq(BiasDataGen.compasLike(spark), BiasDataGen.studentLike(spark), BiasDataGen.germanLike(spark))

  private def indexFor(ds: BiasDataGen.RankedDataset, nAttrs: Int): DatasetIndex =
    Encoding.index(ds.df, ds.attrCols.take(nAttrs), ds.rankCol)

  private def time[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1000000L)
  }

  /** The four timed runs of every sweep point: (problem, algorithm, run
    * on a counter with τ_s, k_min, k_max and a budget).
    */
  private val runs: Seq[(String, String, (PatternCounter, Long, Int, Int, Budget) => DetectionResult)] = Seq(
    ("global", "IterTD", (c, tauS, kMin, kMax, b) =>
      IterTD.run(c, GlobalLowerBound.paperDefault, tauS, kMin, kMax, b)),
    ("global", "GlobalBounds", (c, tauS, kMin, kMax, b) =>
      GlobalBounds.run(c, GlobalLowerBound.paperDefault, tauS, kMin, kMax, b)),
    ("prop", "IterTD", (c, tauS, kMin, kMax, b) =>
      IterTD.run(c, ProportionalLowerBound(DefaultAlpha, c.datasetSize), tauS, kMin, kMax, b)),
    ("prop", "PropBounds", (c, tauS, kMin, kMax, b) =>
      PropBounds.run(c, DefaultAlpha, tauS, kMin, kMax, b)),
  )

  /** Times every run at every point of `points`, which lists the easiest
    * point first: once a run times out, it is not run at later points,
    * which are reported as timed out.
    */
  private def sweep(
      spark: SparkSession,
      paramName: String,
      points: BiasDataGen.RankedDataset => Seq[Long],
      config: (BiasDataGen.RankedDataset, Long) => (DatasetIndex, Long, Int, Int),
      timeoutMs: Long,
  ): Seq[TimingRow] = {
    val rows = Seq.newBuilder[TimingRow]
    for (ds <- datasets(spark); (problem, algo, run) <- runs) {
      var skip = false
      for (pt <- points(ds)) {
        if (!skip) {
          val (ix, tauS, kMin, kMax) = config(ds, pt)
          val counter = new LocalPatternCounter(ix)
          val (res, ms) = time(run(counter, tauS, kMin, kMax, Budget.ofMillis(timeoutMs)))
          rows += TimingRow(ds.name, problem, algo, paramName, pt, ms, res.timedOut,
            res.examined, res.resByK.values.map(_.size).toSeq)
          skip = res.timedOut
        } else {
          rows += TimingRow(ds.name, problem, algo, paramName, pt, timeoutMs, timedOut = true, 0L, Seq.empty)
        }
      }
    }
    rows.result()
  }

  // ------------------------------------------------------------------
  // T1 — Figures 4–5: running time vs number of attributes.
  // ------------------------------------------------------------------

  def attrPoints(ds: BiasDataGen.RankedDataset): Seq[Long] = ds.name match {
    case "compas"  => Seq(3, 6, 9, 12, 16)
    case "student" => Seq(3, 9, 15, 21, 27, 33)
    case _         => Seq(3, 8, 12, 16, 20)
  }

  def t1Attributes(spark: SparkSession, timeoutMs: Long): Seq[TimingRow] =
    sweep(spark, "nAttrs", attrPoints,
      (ds, n) => (indexFor(ds, n.toInt), DefaultTauS, DefaultKMin, DefaultKMax), timeoutMs)

  // ------------------------------------------------------------------
  // T2 — Figures 6–7: running time vs size threshold τ_s.
  // ------------------------------------------------------------------

  /** Descending: a smaller τ_s admits more patterns. */
  val tauPoints: Seq[Long] = Seq(100, 75, 50, 25, 10)

  def t2Threshold(spark: SparkSession, timeoutMs: Long): Seq[TimingRow] = {
    // reuse one index per dataset: τ_s does not change the encoding
    val cache = scala.collection.mutable.Map.empty[String, DatasetIndex]
    sweep(spark, "tauS", _ => tauPoints,
      (ds, tau) => (cache.getOrElseUpdate(ds.name, indexFor(ds, ds.attrCols.size)),
                    tau, DefaultKMin, DefaultKMax), timeoutMs)
  }

  // ------------------------------------------------------------------
  // T3 — Figures 8–9: running time vs range of k; plus the
  // patterns-examined gain quoted in Section VI-B.
  // ------------------------------------------------------------------

  def kMaxPoints(ds: BiasDataGen.RankedDataset): Seq[Long] = ds.name match {
    case "compas" => Seq(50, 125, 250, 500, 1000)
    case _        => Seq(50, 125, 200, 275, 350)
  }

  def t3KRange(spark: SparkSession, timeoutMs: Long): Seq[TimingRow] = {
    val cache = scala.collection.mutable.Map.empty[String, DatasetIndex]
    sweep(spark, "kMax", kMaxPoints,
      (ds, kMax) => (cache.getOrElseUpdate(ds.name, indexFor(ds, ds.attrCols.size)),
                     DefaultTauS, DefaultKMin, kMax.toInt), timeoutMs)
  }

  /** Per dataset and problem, in that order, ITERTD's row and the
    * optimized algorithm's row at the largest sweep point where both
    * completed; nothing for a pair with no such point.
    */
  def largestCommonPoint(rows: Seq[TimingRow]): Seq[(TimingRow, TimingRow)] =
    rows.groupBy(r => (r.dataset, r.problem)).toSeq.sortBy(_._1).flatMap { case (_, rs) =>
      val base = rs.filter(r => r.algo == "IterTD" && !r.timedOut)
      val opt  = rs.filter(r => r.algo != "IterTD" && !r.timedOut)
      val common = base.map(_.param).toSet.intersect(opt.map(_.param).toSet)
      common.maxOption.map(k => (base.find(_.param == k).get, opt.find(_.param == k).get))
    }

  /** Patterns-examined gain of the optimized algorithm vs ITERTD,
    * per dataset and problem, at the largest k-range point both
    * completed. Mirrors the percentages quoted in Section VI-B.
    */
  final case class GainRow(dataset: String, problem: String, kMax: Long,
                           baseExamined: Long, optExamined: Long) {
    def gainPct: Double = 100.0 * (1.0 - optExamined.toDouble / baseExamined)
  }

  def examinedGains(rows: Seq[TimingRow]): Seq[GainRow] =
    largestCommonPoint(rows).map { case (b, o) => GainRow(b.dataset, b.problem, b.param, b.examined, o.examined) }

  /** Section III claim: in 97.58 % of cases fewer than 100 groups are
    * reported. Computed over all per-k result cells of the given runs.
    */
  def under100Share(rows: Seq[TimingRow]): (Long, Long) = {
    val cells = rows.flatMap(_.resCells)
    (cells.count(_ < 100).toLong, cells.size.toLong)
  }

  // ------------------------------------------------------------------
  // T4/T5 — Figure 10: Shapley-based result analysis.
  // ------------------------------------------------------------------

  /** The per-dataset group analogues of the paper's p1/p2/p3, detected
    * at k = 49 with L_k = 40 (Section VI-C), then explained.
    */
  def t4Shapley(spark: SparkSession): Seq[(String, ResultAnalysis.Explanation)] = {
    val wanted = Map(
      "student" -> "Medu",
      "compas" -> "age_bucket",
      "german" -> "status_account",
    )
    datasets(spark).map { ds =>
      val ix = indexFor(ds, ds.attrCols.size)
      val counter = new LocalPatternCounter(ix)
      val res = GlobalBounds.run(counter, GlobalLowerBound(_ => 40.0), DefaultTauS, 49, 49)
      val detected = res.resByK(49)
      require(detected.nonEmpty, s"no biased group detected on ${ds.name}")
      val attr = wanted(ds.name)
      val attrIdx = ds.attrCols.indexOf(attr)
      // prefer the paper-analogue group on the expected attribute (value 0
      // = the "low" bucket, e.g. Medu=primary); fall back to the largest
      // detected group
      val group = detected
        .filter(p => p.attrs == Seq(attrIdx))
        .minByOption(_.vals(attrIdx))
        .getOrElse(detected.maxBy(ix.sizeD))
      ds.name -> ResultAnalysis.explain(ix, group, DefaultKMax)
    }
  }

  // ------------------------------------------------------------------
  // T6 — Section VI-D case study: comparison with Pastor et al. [27].
  // ------------------------------------------------------------------

  final case class CaseStudy(
      propPatterns: Set[Pattern],
      globalPatterns: Set[Pattern],
      divergenceGroups: Seq[DivergenceExplorer.DivGroup],
      index: DatasetIndex,
  )

  def t6CaseStudy(spark: SparkSession): CaseStudy = {
    val ds = BiasDataGen.studentLike(spark)
    val attrs = ds.attrCols.take(4) // school, sex, age, address — as in the paper
    val ix = Encoding.index(ds.df, attrs, ds.rankCol)
    val counter = new LocalPatternCounter(ix)
    val k = 10
    val prop = PropBounds.run(counter, DefaultAlpha, DefaultTauS, k, k).resByK(k)
    val glob = GlobalBounds.run(counter, GlobalLowerBound(_ => 10.0), DefaultTauS, k, k).resByK(k)
    val div = DivergenceExplorer.run(counter, k, minSupport = DefaultTauS)
    CaseStudy(prop, glob, div, ix)
  }
}
