package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments.{GainRow, TimingRow}

/** The table layer's pure logic: the T3 gains, the §III share and the
  * timing rows, on hand-made sweep rows (no Spark, no search).
  */
class TablesSpec extends AnyFunSuite {

  private def row(ds: String, problem: String, algo: String, param: Long,
                  examined: Long, timedOut: Boolean = false, millis: Long = 5L,
                  cells: Seq[Int] = Seq(1)): TimingRow =
    TimingRow(ds, problem, algo, "kMax", param, millis, timedOut, examined, cells)

  /** compas/global completes on both sides at 50 and 125, ITERTD times out
    * at 250 where GlobalBounds completes; compas/prop has no point where
    * both completed; student/global completes on both sides at 50 only.
    */
  private val sweep = Seq(
    row("student", "global", "IterTD", 50, 40),
    row("student", "global", "GlobalBounds", 50, 30),
    row("student", "global", "IterTD", 125, 0, timedOut = true),
    row("compas", "global", "IterTD", 50, 100),
    row("compas", "global", "IterTD", 125, 300),
    row("compas", "global", "IterTD", 250, 900, timedOut = true),
    row("compas", "global", "GlobalBounds", 50, 60),
    row("compas", "global", "GlobalBounds", 125, 150),
    row("compas", "global", "GlobalBounds", 250, 200),
    row("compas", "prop", "IterTD", 50, 0, timedOut = true),
    row("compas", "prop", "PropBounds", 50, 10),
  )

  /** The whitespace-separated cells of each table line after the title. */
  private def cells(table: String): Seq[Seq[String]] =
    table.split("\n").toSeq.drop(1).map(_.trim.split("\\s+").toSeq)

  test("examinedGains takes the largest k_max both algorithms completed, per dataset and problem") {
    assert(Experiments.examinedGains(sweep) == Seq(
      GainRow("compas", "global", 125, 300, 150),
      GainRow("student", "global", 50, 40, 30),
    ))
  }

  test("examinedGains returns no row for a dataset and problem with no common completed point") {
    assert(!Experiments.examinedGains(sweep).exists(_.problem == "prop"))
    assert(Experiments.examinedGains(sweep.filter(_.algo != "GlobalBounds")).isEmpty)
    assert(Experiments.examinedGains(Seq.empty).isEmpty)
  }

  test("gainPct is the share of ITERTD's examined patterns the optimized run saves") {
    assert(GainRow("d", "global", 50, 300, 150).gainPct == 50.0)
    assert(GainRow("d", "global", 50, 200, 200).gainPct == 0.0)
    assert(GainRow("d", "global", 50, 100, 125).gainPct == -25.0)
  }

  test("under100Share counts the result cells below 100 groups over every run's cells") {
    val rows = Seq(
      row("d", "global", "IterTD", 50, 1, cells = Seq(1, 99, 100)),
      row("d", "global", "IterTD", 125, 0, timedOut = true, cells = Seq.empty),
      row("d", "prop", "PropBounds", 50, 1, cells = Seq(250, 3)),
    )
    assert(Experiments.under100Share(rows) == ((3L, 5L)))
    assert(Experiments.under100Share(Seq.empty) == ((0L, 0L)))
  }

  test("the timing tables print TO and - for timed-out and skipped runs") {
    val rows = Seq(
      row("compas", "prop", "IterTD", 100, 345, millis = 12, cells = Seq(3, 7)),
      // timed out during the sweep point: its cells cover the completed k
      row("compas", "prop", "IterTD", 50, 999, timedOut = true, millis = 3000, cells = Seq(2)),
      // skipped after an earlier time-out
      row("compas", "prop", "IterTD", 10, 0, timedOut = true, millis = 3000, cells = Seq.empty),
      row("compas", "prop", "PropBounds", 100, 20, millis = 12345, cells = Seq.empty),
    )
    assert(cells(Tables.t2(rows)) == Seq(
      Seq("dataset", "problem", "algo", "kMax", "time", "examined", "max|Res|"),
      Seq("-------", "-------", "----------", "----", "-----", "--------", "--------"),
      Seq("compas", "prop", "IterTD", "100", "12ms", "345", "7"),
      Seq("compas", "prop", "IterTD", "50", "TO", "-", "2"),
      Seq("compas", "prop", "IterTD", "10", "TO", "-", "-"),
      Seq("compas", "prop", "PropBounds", "100", "12.3s", "20", "-"),
    ))
  }

  test("T1 ends with the <100 groups line and T3 with its gains") {
    val t1 = Tables.t1(sweep)
    assert(t1.split("\n").last == "result cells with <100 groups: 11/11 (100.00%; paper: 97.58%)")
    val t3 = cells(Tables.t3(sweep))
    assert(t3.contains(Seq("compas", "global", "125", "300", "150", "50.00")))
    assert(t3.contains(Seq("student", "global", "50", "40", "30", "25.00")))
    assert(t3.last.take(2) == Seq("paper", "gains:"))
  }
}
