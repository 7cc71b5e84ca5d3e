package repro.experiments

import repro.SparkSpec
import repro.experiments.Experiments._
import repro.jobs.RunExhibit
import repro.stream.InteractionStreams
import repro.stream.InteractionStreams.StreamSpec

/** The experiment harness itself, on deliberately tiny configurations. */
class ExperimentsSpec extends SparkSpec {

  private val tiny = StreamSpec(
    "tiny", nSrc = 60, nDst = 60, interactions = 300L, steps = 300,
    zipfAlpha = 1.1, bipartite = false, seed = 999L,
  )

  test("batchesFor re-times to one interaction per step") {
    val b = Experiments.batchesFor(spark, tiny, steps = 50, p = 0.05, maxL = 20)
    assert(b.steps.length == 50)
    assert(b.steps.forall(_.size <= 1))
    assert(b.totalEdges == 50)
    assert(b.universe == 60)
  }

  test("batchesFor lifetimes respect the cap") {
    val b = Experiments.batchesFor(spark, tiny, steps = 80, p = 0.05, maxL = 7)
    assert(b.steps.flatten.forall(e => e.lifetime >= 1 && e.lifetime <= 7))
  }

  test("tableI reports one row per dataset with the paper's numbers attached") {
    // Covered end-to-end in the bench; here just the paper-side bookkeeping.
    assert(InteractionStreams.paperTableI.size == 6)
    assert(InteractionStreams.paperTableI("twitter-hk") == (49808L, 2930439L))
  }

  test("fig7 rows carry consistent ratios on a tiny run") {
    val rows = Experiments.fig7(
      spark, Seq(tiny), ps = Seq(0.05), steps = 40, k = 3, eps = 0.2, maxL = 30,
    )
    assert(rows.size == 1)
    val r = rows.head
    assert(r.dataset == "tiny")
    assert(r.basicValue > 0 && r.histValue > 0)
    assert(math.abs(r.valueRatio - r.histValue / r.basicValue) < 1e-12)
    assert(r.histCalls <= r.basicCalls)
  }

  test("fig8to10Rows shares one Greedy run across eps values") {
    val rows = Experiments.fig8to10Rows(
      spark, Seq(tiny), epss = Seq(0.1, 0.3), steps = 60, k = 3,
      maxL = 30, p = 0.05,
    )
    assert(rows.size == 2)
    assert(rows.map(_.avgGreedyValue).distinct.size == 1, "same Greedy baseline for all eps")
    rows.foreach { r =>
      assert(r.valueRatioToGreedy > 0 && r.valueRatioToGreedy <= 1.2)
      assert(r.callRatioToGreedy > 0)
    }
  }

  test("fig11 and fig12 sweep the requested parameter") {
    val k = Experiments.fig11(spark, Seq(tiny), ks = Seq(2, 4), steps = 40,
      eps = 0.2, maxL = 30, pOf = _ => 0.05)
    assert(k.map(_.param) == Seq(2, 4))
    val l = Experiments.fig12(spark, Seq(tiny), ls = Seq(20, 40), steps = 40,
      k = 3, eps = 0.2, p = 0.05)
    assert(l.map(_.param) == Seq(20, 40))
  }

  test("fig13to14 produces one row per algorithm with positive throughput") {
    val rows = Experiments.fig13to14(
      spark, Seq(tiny), steps = 40, k = 3, maxL = 30, p = 0.05, maxRR = 500,
    )
    assert(rows.map(_.algo).toSet ==
      Set("Greedy", "HistApprox", "DIM", "IMM", "TIM+", "Random"))
    rows.foreach(r => assert(r.throughputEdgesPerSec > 0))
    val by = rows.map(r => r.algo -> r.valueRatioToGreedy).toMap
    assert(math.abs(by("Greedy") - 1.0) < 1e-9)
  }

  test("Defaults keep the paper's regime: L >> 1/p") {
    assert(Defaults.maxL > 5.0 / Defaults.p * 0.9)
  }

  // The renderers below are the text `sbt "bench/test"` prints after each
  // `BENCH|<exhibit>| ` prefix; these run on hand-built rows, without Spark.

  test("tableILines prints the Table I header and rows") {
    assert(tableILines(Seq(TableIRow("twitter-higgs", 304691L, 563069L, 3047L, 5630L))) == Seq(
      "dataset              paperNodes  paperInter   oursNodes   oursInter",
      "twitter-higgs            304691      563069        3047        5630",
    ))
  }

  test("fig7Lines prints the Fig 7 header and rows") {
    assert(fig7Lines(Seq(Fig7Row("gowalla", 0.016, 21.67, 20.13, 1234.4, 98.6))) == Seq(
      "dataset          p     basicVal  histVal  valRatio  basicCalls/step  histCalls/step  callRatio",
      "gowalla         0.016      21.7     20.1     0.929             1234              99      0.080",
    ))
  }

  test("fig8to10Lines prints the Figs 8-10 header and rows") {
    val r = Fig8Row("stackoverflow-c2q", 0.15, 45.31, 46.52, 3.14, 0.9731, 0.1182)
    assert(fig8to10Lines(Seq(r)) == Seq(
      "dataset              eps   histVal  greedyVal  randomVal  valRatio  callRatio",
      "stackoverflow-c2q    0.15     45.3       46.5        3.1     0.973      0.118",
    ))
  }

  test("fig11Lines and fig12Lines print k four and L five wide") {
    assert(fig11Lines(Seq(SweepRow("twitter-hk", 25, 0.8961, 0.5042))) == Seq(
      "dataset            k  valRatio  callRatio",
      "twitter-hk         25     0.896      0.504",
    ))
    assert(fig12Lines(Seq(SweepRow("twitter-hk", 10000, 0.9121, 0.3151))) == Seq(
      "dataset            L  valRatio  callRatio",
      "twitter-hk       10000     0.912      0.315",
    ))
  }

  test("fig13to14Lines prints the Figs 13-14 header and rows") {
    assert(fig13to14Lines(Seq(Fig13Row("twitter-higgs", "TIM+", 0.9512, 61.37))) == Seq(
      "dataset              algo          valRatio     edges/s",
      "twitter-higgs        TIM+             0.951         61.4",
    ))
  }

  test("RunExhibit knows the six exhibits and rejects any other name with the list") {
    val names = Seq("table-i", "fig7", "fig8to10", "fig11", "fig12", "fig13to14")
    assert(RunExhibit.exhibits.keys.toSeq == names)
    names.foreach(n => assert(RunExhibit.exhibit(n) eq RunExhibit.exhibits(n)))
    val e = intercept[IllegalArgumentException](RunExhibit.exhibit("fig9"))
    assert(e.getMessage.contains("fig9"))
    names.foreach(n => assert(e.getMessage.contains(n), e.getMessage))
  }
}
