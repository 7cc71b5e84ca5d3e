package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.ic.{DimTracker, ImmTracker, TimPlusTracker}
import repro.stream.{InteractionStreams, StreamDriver}
import repro.stream.InteractionStreams.StreamSpec
import repro.stream.StreamDriver.StepRecord
import repro.tdn.Lifetimes

/** The paper's evaluation (§V), one definition per exhibit: each table /
  * figure has one function returning plain result rows, whose default
  * arguments are the exhibit's protocol, and one `...Lines` renderer that
  * prints them. `jobs/RunExhibit` and the bench suites in `bench/` both call
  * these two, so they run and print the same tables.
  *
  * Scale note (DESIGN.md §5): datasets are ~1/100 of the paper's. Fig 7 runs
  * at the paper's T, L and p; the other horizons are 1500 (Figs 8–10), 400
  * (Figs 11–12) and 500 (Figs 13–14) steps instead of 5,000–10,000, with the
  * paper's parameter ratios preserved.
  * Comparisons are shape-level: who wins, by roughly what factor, where the
  * trends point.
  */
object Experiments {

  /** Replayable batches for `spec` with Geometric(p) lifetimes capped at L,
    * re-timed to one interaction per step (§V-B: "one interaction arrives at
    * a time") — so `steps` is also the number of interactions replayed.
    */
  def batchesFor(
      spark: SparkSession,
      spec: StreamSpec,
      steps: Int,
      p: Double,
      maxL: Int,
  ): StreamDriver.Batches = {
    val df = Lifetimes.withGeometricLifetimes(
      InteractionStreams.unitStepPrefix(spark, spec, steps),
      p, maxL, seed = spec.seed + 7777,
    )
    StreamDriver.batchesFromDf(df, spec.universe, steps)
  }

  private def avg(xs: Iterable[Double]): Double =
    if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Mean per-step value ratio of `recs` to Greedy's, over the steps where
    * Greedy's value is positive.
    */
  private def valueRatio(recs: Seq[StepRecord], greedy: Seq[StepRecord]): Double =
    avg(recs.zip(greedy).collect { case (r, g) if g.value > 0 => r.value.toDouble / g.value })

  /** Ratio of cumulative oracle calls at the horizon, `recs` over Greedy's. */
  private def callRatio(recs: Seq[StepRecord], greedy: Seq[StepRecord]): Double =
    recs.last.oracleCallsCum.toDouble / math.max(1.0, greedy.last.oracleCallsCum.toDouble)

  // ---------------------------------------------------------------- Table I

  final case class TableIRow(
      dataset: String,
      paperNodes: Long,
      paperInteractions: Long,
      nodes: Long,
      interactions: Long,
  )

  /** Table I: dataset summary — paper numbers vs our 1/100-scale synthetics. */
  def tableI(spark: SparkSession): Seq[TableIRow] = {
    import org.apache.spark.sql.functions._
    InteractionStreams.all.map { spec =>
      val df = InteractionStreams.generate(spark, spec)
      val row = df
        .agg(count(lit(1)).as("m"))
        .collect()(0)
      val nodes = df
        .select(col("src").as("node"))
        .union(df.select(col("dst").as("node")))
        .distinct()
        .count()
      val (pn, pm) = InteractionStreams.paperTableI(spec.name)
      TableIRow(spec.name, pn, pm, nodes, row.getLong(0))
    }
  }

  def tableILines(rows: Seq[TableIRow]): Seq[String] =
    "dataset              paperNodes  paperInter   oursNodes   oursInter" +: rows.map { r =>
      f"${r.dataset}%-20s ${r.paperNodes}%10d ${r.paperInteractions}%11d ${r.nodes}%11d ${r.interactions}%11d"
    }

  // ------------------------------------------------------------------ Fig 7

  final case class Fig7Row(
      dataset: String,
      p: Double,
      basicValue: Double,
      histValue: Double,
      basicCalls: Double,
      histCalls: Double,
  ) {
    def valueRatio: Double = if (basicValue == 0) 0 else histValue / basicValue
    def callRatio: Double  = if (basicCalls == 0) 0 else histCalls / basicCalls
  }

  /** Fig. 7: BasicReduction vs HistApprox across lifetime skew p
    * (avg solution value and avg oracle calls per step), at §V's protocol:
    * ε = 0.1, k = 10, L = 1000, p ∈ {0.001, 0.002, 0.004, 0.008}, 5000 steps.
    */
  def fig7(
      spark: SparkSession,
      specs: Seq[StreamSpec] = Defaults.lbsn,
      ps: Seq[Double] = Seq(0.001, 0.002, 0.004, 0.008),
      steps: Int = 5000,
      k: Int = 10,
      eps: Double = 0.1,
      maxL: Int = 1000,
  ): Seq[Fig7Row] =
    for {
      spec <- specs
      p    <- ps
    } yield {
      val batches = batchesFor(spark, spec, steps, p, maxL)
      val basic   = new BasicReduction(k, eps, maxL, spec.universe)
      val hist    = new HistApprox(k, eps, maxL, spec.universe)
      val recs    = StreamDriver.run(batches, Seq(basic, hist), queryEvery = 1)
      Fig7Row(
        spec.name,
        p,
        avg(recs("BasicReduction").map(_.value.toDouble)),
        avg(recs("HistApprox").map(_.value.toDouble)),
        recs("BasicReduction").last.oracleCallsCum.toDouble / steps,
        recs("HistApprox").last.oracleCallsCum.toDouble / steps,
      )
    }

  def fig7Lines(rows: Seq[Fig7Row]): Seq[String] =
    "dataset          p     basicVal  histVal  valRatio  basicCalls/step  histCalls/step  callRatio" +: rows.map { r =>
      f"${r.dataset}%-14s ${r.p}%6.3f ${r.basicValue}%9.1f ${r.histValue}%8.1f ${r.valueRatio}%9.3f ${r.basicCalls}%16.0f ${r.histCalls}%15.0f ${r.callRatio}%10.3f"
    }

  // ------------------------------------------------------------ Figs 8 - 10

  final case class Fig8Row(
      dataset: String,
      eps: Double,
      avgHistValue: Double,
      avgGreedyValue: Double,
      avgRandomValue: Double,
      valueRatioToGreedy: Double,   // Fig 9
      callRatioToGreedy: Double,    // Fig 10 (cumulative calls at the horizon)
  )

  /** Figs. 8–10: one Greedy and Random run shared by every ε, then each ε's
    * HistApprox in its own run over the same batches, since a run keys its
    * records by tracker name. The trackers and the ground truth are
    * deterministic and independent of each other, so the split changes no row.
    * Paper: k = 10, L = 10K, p = 0.001, 5000 steps; ours L = 5000, p = 0.002,
    * 1500 steps.
    */
  def fig8to10Rows(
      spark: SparkSession,
      specs: Seq[StreamSpec] = InteractionStreams.all,
      epss: Seq[Double] = Seq(0.1, 0.15, 0.2),
      steps: Int = 1500,
      k: Int = 10,
      maxL: Int = Defaults.maxL,
      p: Double = Defaults.p,
  ): Seq[Fig8Row] =
    specs.flatMap { spec =>
      val batches = batchesFor(spark, spec, steps, p, maxL)
      val greedy  = new GreedyTracker(k, spec.universe)
      val random  = new RandomTracker(k, spec.universe, seed = 55L)
      val recs    = StreamDriver.run(batches, Seq(greedy, random))
      val g       = recs("Greedy")
      val gv      = avg(g.map(_.value.toDouble))
      val rv      = avg(recs("Random").map(_.value.toDouble))
      epss.map { e =>
        val h = StreamDriver.run(batches, Seq(new HistApprox(k, e, maxL, spec.universe)))("HistApprox")
        Fig8Row(
          spec.name, e,
          avgHistValue = avg(h.map(_.value.toDouble)),
          avgGreedyValue = gv,
          avgRandomValue = rv,
          valueRatioToGreedy = valueRatio(h, g),
          callRatioToGreedy = callRatio(h, g),
        )
      }
    }

  def fig8to10Lines(rows: Seq[Fig8Row]): Seq[String] =
    "dataset              eps   histVal  greedyVal  randomVal  valRatio  callRatio" +: rows.map { r =>
      f"${r.dataset}%-20s ${r.eps}%4.2f ${r.avgHistValue}%8.1f ${r.avgGreedyValue}%10.1f ${r.avgRandomValue}%10.1f ${r.valueRatioToGreedy}%9.3f ${r.callRatioToGreedy}%10.3f"
    }

  // ------------------------------------------------------------ Figs 11, 12

  final case class SweepRow(
      dataset: String,
      param: Int, // k for Fig 11, L for Fig 12
      valueRatioToGreedy: Double,
      callRatioToGreedy: Double,
  )

  /** HistApprox vs Greedy at one point of a sweep; `param` is the swept value. */
  private def sweepRow(
      spark: SparkSession,
      spec: StreamSpec,
      param: Int,
      steps: Int,
      k: Int,
      eps: Double,
      maxL: Int,
      p: Double,
  ): SweepRow = {
    val batches = batchesFor(spark, spec, steps, p, maxL)
    val hist    = new HistApprox(k, eps, maxL, spec.universe)
    val greedy  = new GreedyTracker(k, spec.universe)
    val recs    = StreamDriver.run(batches, Seq(hist, greedy), queryEvery = 1)
    val (h, g)  = (recs("HistApprox"), recs("Greedy"))
    SweepRow(spec.name, param, valueRatio(h, g), callRatio(h, g))
  }

  /** A sweep's table; the swept value is printed `width` wide under `param`. */
  private def sweepLines(param: String, width: Int)(rows: Seq[SweepRow]): Seq[String] =
    s"dataset            $param  valRatio  callRatio" +: rows.map { r =>
      s"%-16s %${width}d %9.3f %10.3f".format(r.dataset, r.param, r.valueRatioToGreedy, r.callRatioToGreedy)
    }

  /** Fig. 11: HistApprox vs Greedy across budgets k (ε, L fixed). Paper:
    * k = 10..100, L = 10K; ours k = 10..100, L = 5000, 400 steps. Unlike
    * the other exhibits it takes p as a function of the spec, the shape
    * perfbench's self-test calls it with.
    */
  def fig11(
      spark: SparkSession,
      specs: Seq[StreamSpec] = Defaults.twitter,
      ks: Seq[Int] = Seq(10, 25, 50, 100),
      steps: Int = 400,
      eps: Double = 0.2,
      maxL: Int = Defaults.maxL,
      pOf: StreamSpec => Double = _ => Defaults.p,
  ): Seq[SweepRow] =
    for { spec <- specs; k <- ks } yield sweepRow(spark, spec, k, steps, k, eps, maxL, pOf(spec))

  def fig11Lines(rows: Seq[SweepRow]): Seq[String] = sweepLines("k", 4)(rows)

  /** Fig. 12: HistApprox vs Greedy across lifetime caps L (ε, k fixed).
    * Paper: L = 10K..100K at p = 0.001; ours L = 5K..50K at p = 0.002, 400
    * steps. Both keep L ≫ 1/p, so truncation never binds.
    */
  def fig12(
      spark: SparkSession,
      specs: Seq[StreamSpec] = Defaults.twitter,
      ls: Seq[Int] = Seq(5000, 10000, 20000, 50000),
      steps: Int = 400,
      k: Int = 10,
      eps: Double = 0.2,
      p: Double = Defaults.p,
  ): Seq[SweepRow] =
    for { spec <- specs; l <- ls } yield sweepRow(spark, spec, l, steps, k, eps, l, p)

  def fig12Lines(rows: Seq[SweepRow]): Seq[String] = sweepLines("L", 5)(rows)

  // ------------------------------------------------------------ Figs 13, 14

  final case class Fig13Row(
      dataset: String,
      algo: String,
      valueRatioToGreedy: Double, // Fig 13
      throughputEdgesPerSec: Double, // Fig 14
  )

  /** Figs. 13–14: quality (value ratio vs Greedy) and throughput for
    * HistApprox(ε=0.3), DIM, IMM, TIM+, Random — all queried every step as in
    * the paper's throughput setup. Paper: k = 10, 10,000 steps; ours 500.
    */
  def fig13to14(
      spark: SparkSession,
      specs: Seq[StreamSpec] = Defaults.social,
      steps: Int = 500,
      k: Int = 10,
      maxL: Int = Defaults.maxL,
      p: Double = Defaults.p,
      maxRR: Int = 20000,
  ): Seq[Fig13Row] =
    specs.flatMap { spec =>
      val batches = batchesFor(spark, spec, steps, p, maxL)
      val algos: Seq[StreamingInfluenceAlgo] = Seq(
        new GreedyTracker(k, spec.universe),
        new HistApprox(k, 0.3, maxL, spec.universe),
        new DimTracker(k, spec.universe, beta = 32, seed = 21L),
        new ImmTracker(k, spec.universe, seed = 22L, maxRR = maxRR),
        new TimPlusTracker(k, spec.universe, seed = 23L, maxRR = maxRR),
        new RandomTracker(k, spec.universe, seed = 24L),
      )
      val recs = StreamDriver.run(batches, algos, queryEvery = 1)
      val g    = recs("Greedy")
      algos.map { a =>
        val r = recs(a.name)
        Fig13Row(
          spec.name,
          a.name,
          valueRatioToGreedy = valueRatio(r, g),
          throughputEdgesPerSec = StreamDriver.throughputEdgesPerSec(batches, r),
        )
      }
    }

  def fig13to14Lines(rows: Seq[Fig13Row]): Seq[String] =
    "dataset              algo          valRatio     edges/s" +: rows.map { r =>
      f"${r.dataset}%-20s ${r.algo}%-12s ${r.valueRatioToGreedy}%9.3f ${r.throughputEdgesPerSec}%12.1f"
    }
}
