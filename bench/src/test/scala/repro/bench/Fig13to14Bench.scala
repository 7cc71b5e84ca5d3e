package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments

/** Figs. 13–14 — solution quality and throughput for HistApprox(ε = 0.3),
  * DIM, IMM, TIM+, Random vs Greedy on the four social datasets (k = 10,
  * queried every step), at `Experiments.fig13to14`'s protocol.
  *
  * Paper shapes asserted: HistApprox, IMM, TIM+ all find high-quality
  * solutions; DIM is less stable; the static-index methods (IMM/TIM+) have
  * the lowest throughput, below DIM, below HistApprox. Known deviation
  * (EXPERIMENTS.md): lazy Greedy's raw throughput is above HistApprox's.
  * Each CELF call reaches few nodes and costs little, while HistApprox's
  * time also pays for candidate searches, back-fill and sieve upkeep. The
  * paper's alive graph is not larger (about 1/p interactions at one per
  * step), so why its order differs is open.
  */
class Fig13to14Bench extends SparkSpec {

  test("Figs 13-14: quality and throughput across methods") {
    val rows = Experiments.fig13to14(spark)
    Experiments.fig13to14Lines(rows).foreach(l => println(s"BENCH|Fig13to14| $l"))

    rows.groupBy(_.dataset).foreach { case (d, rs) =>
      val by = rs.map(r => r.algo -> r).toMap
      // Fig 13: HistApprox / IMM / TIM+ high quality; DIM less stable; Random low.
      assert(by("HistApprox").valueRatioToGreedy >= 0.88, s"$d hist ${by("HistApprox").valueRatioToGreedy}")
      assert(by("IMM").valueRatioToGreedy >= 0.75, s"$d imm")
      assert(by("TIM+").valueRatioToGreedy >= 0.75, s"$d tim+")
      assert(by("DIM").valueRatioToGreedy >= 0.5, s"$d dim ${by("DIM").valueRatioToGreedy}")
      assert(by("DIM").valueRatioToGreedy < by("HistApprox").valueRatioToGreedy, s"$d: DIM should trail HistApprox")
      assert(by("Random").valueRatioToGreedy < 0.5, s"$d random")
      assert(by("Random").valueRatioToGreedy < by("DIM").valueRatioToGreedy, s"$d: Random lowest")
      // Fig 14: HistApprox > DIM > static indexes in throughput.
      assert(by("HistApprox").throughputEdgesPerSec > by("DIM").throughputEdgesPerSec, s"$d: hist vs dim")
      assert(by("DIM").throughputEdgesPerSec > by("IMM").throughputEdgesPerSec, s"$d: dim vs imm")
      assert(by("DIM").throughputEdgesPerSec > by("TIM+").throughputEdgesPerSec, s"$d: dim vs tim+")
    }
  }
}
