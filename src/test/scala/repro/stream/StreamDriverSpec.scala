package repro.stream

import repro.{SparkSpec, TestData}
import repro.core.{BasicReduction, GreedyTracker, HistApprox, RandomTracker, StreamingInfluenceAlgo}
import repro.ic.{DimTracker, ImmTracker, TimPlusTracker}
import repro.stream.StreamDriver.StepLoop
import repro.tdn.{Lifetimes, TimedEdge}

class StreamDriverSpec extends SparkSpec {

  private def smallBatches = {
    val spec = InteractionStreams.twitterHK
    val df   = Lifetimes.withGeometricLifetimes(
      InteractionStreams.prefix(spark, spec, 30), p = 0.05, maxL = 50, seed = 1L)
    StreamDriver.batchesFromDf(df, spec.universe, maxSteps = 30)
  }

  test("batchesFromDf groups edges by timestep with empty steps preserved") {
    import spark.implicits._
    val df = Seq((0, 1, 2, 3), (0, 4, 5, 2), (3, 6, 7, 1))
      .toDF("ts", "src", "dst", "lifetime")
    val b = StreamDriver.batchesFromDf(df, universe = 10, maxSteps = 5)
    assert(b.steps.length == 5)
    assert(b.steps(0).toSet == Set(TimedEdge(1, 2, 3), TimedEdge(4, 5, 2)))
    assert(b.steps(1).isEmpty && b.steps(2).isEmpty)
    assert(b.steps(3) == Seq(TimedEdge(6, 7, 1)))
    assert(b.steps(4).isEmpty)
    assert(b.totalEdges == 3)
  }

  test("batchesFromDf drops rows beyond maxSteps") {
    import spark.implicits._
    val df = Seq((0, 1, 2, 3), (9, 4, 5, 2)).toDF("ts", "src", "dst", "lifetime")
    val b  = StreamDriver.batchesFromDf(df, 10, maxSteps = 5)
    assert(b.totalEdges == 1)
  }

  test("batchesFromDf rejects a row with a null field or ts < 0, naming the row") {
    import spark.implicits._
    val nullSrc = Seq[(Int, Option[Int], Int, Int)]((0, Some(1), 2, 3), (1, None, 5, 2))
      .toDF("ts", "src", "dst", "lifetime")
    val e1 = intercept[IllegalArgumentException](StreamDriver.batchesFromDf(nullSrc, 10, maxSteps = 5))
    assert(e1.getMessage.contains("[1,null,5,2]"), e1.getMessage)
    val negTs = Seq((0, 1, 2, 3), (-1, 4, 5, 2)).toDF("ts", "src", "dst", "lifetime")
    val e2    = intercept[IllegalArgumentException](StreamDriver.batchesFromDf(negTs, 10, maxSteps = 5))
    assert(e2.getMessage.contains("[-1,4,5,2]"), e2.getMessage)
  }

  test("batchesFromDf rejects a non-int column, naming each such column and its type") {
    import spark.implicits._
    val df = Seq((0, 1L, 2, 3L), (1, 4L, 5, 2L)).toDF("ts", "src", "dst", "lifetime")
    val e  = intercept[IllegalArgumentException](StreamDriver.batchesFromDf(df, 10, maxSteps = 5))
    assert(e.getMessage.contains("src is bigint") && e.getMessage.contains("lifetime is bigint"), e.getMessage)
    assert(!e.getMessage.contains("ts is") && !e.getMessage.contains("dst is"), e.getMessage)
  }

  test("run rejects two trackers with the same name, listing it") {
    val b = smallBatches
    val e = intercept[IllegalArgumentException] {
      StreamDriver.run(b, Seq(new HistApprox(3, 0.2, 50, b.universe), new RandomTracker(3, b.universe, seed = 1L),
        new HistApprox(5, 0.1, 50, b.universe)))
    }
    assert(e.getMessage.contains("HistApprox") && !e.getMessage.contains("Random"), e.getMessage)
  }

  test("an edge outside the universe is rejected at its step and changes no tracker or ground truth") {
    val universe = 10
    val stream   = TestData.randomTimedStream(universe, steps = 10, perStep = 3, maxL = 5, seed = 17L)
    val s        = 2
    val bad      = stream(s) :+ TimedEdge(0, universe, 3)
    def trackers(): Seq[StreamingInfluenceAlgo] = Seq(
      new HistApprox(2, 0.2, 5, universe),
      new BasicReduction(2, 0.2, 5, universe),
      new GreedyTracker(2, universe),
      new RandomTracker(2, universe, seed = 5L),
      new DimTracker(2, universe, beta = 1, seed = 6L),
      new ImmTracker(2, universe, maxRR = 500),
      new TimPlusTracker(2, universe, maxRR = 500),
    )
    def rejects(step: => Unit): Unit = {
      val e = intercept[IllegalArgumentException](step)
      assert(e.getMessage.contains(s"(0,$universe)"), e.getMessage)
    }
    // Every fourth step, as StreamDriver.run(queryEvery = 4) does: no query
    // before step s, so no graph is built lazily before the bad batch.
    def query(t: Int) = (t + 1) % 4 == 0 || t == stream.length - 1

    def replay(batchAtS: Seq[TimedEdge]) = {
      val loop = new StepLoop(universe, trackers())
      stream.indices.foreach { t =>
        if (t == s && batchAtS.nonEmpty) rejects(loop.step(batchAtS, query(t)))
        loop.step(if (t == s) Nil else stream(t), query(t))
      }
      loop.records.view.mapValues(_.map(_.copy(elapsedNanosCum = 0L))).toMap
    }
    assert(replay(bad) == replay(Nil))

    // Each tracker alone, outside the loop.
    def outputs(algo: StreamingInfluenceAlgo, batchAtS: Seq[TimedEdge]) = stream.indices.map { t =>
      if (t == s && batchAtS.nonEmpty) rejects(algo.observe(batchAtS))
      algo.observe(if (t == s) Nil else stream(t))
      val seeds = if (query(t)) algo.querySolution else Nil
      algo.endStep()
      (seeds, algo.oracleCalls)
    }
    trackers().zip(trackers()).foreach { case (a, b) =>
      assert(outputs(a, bad) == outputs(b, Nil), a.name)
    }
  }

  test("run produces one record per query step per algorithm") {
    val b    = smallBatches
    val hist = new HistApprox(5, 0.2, 50, b.universe)
    val rnd  = new RandomTracker(5, b.universe, seed = 2L)
    val recs = StreamDriver.run(b, Seq(hist, rnd), queryEvery = 1)
    assert(recs("HistApprox").size == 30)
    assert(recs("Random").size == 30)
    assert(recs("HistApprox").map(_.t) == (0 until 30).toVector)
  }

  test("queryEvery > 1 samples query steps but always includes the last") {
    val b    = smallBatches
    val hist = new HistApprox(5, 0.2, 50, b.universe)
    val recs = StreamDriver.run(b, Seq(hist), queryEvery = 7)
    val ts   = recs("HistApprox").map(_.t)
    assert(ts.contains(29))
    assert(ts.forall(t => (t + 1) % 7 == 0 || t == 29))
  }

  test("values are evaluated on the shared ground truth (HistApprox >= Random on average)") {
    val b    = smallBatches
    val hist = new HistApprox(5, 0.2, 50, b.universe)
    val rnd  = new RandomTracker(5, b.universe, seed = 3L)
    val recs = StreamDriver.run(b, Seq(hist, rnd))
    val hv   = recs("HistApprox").map(_.value.toDouble).sum
    val rv   = recs("Random").map(_.value.toDouble).sum
    assert(hv >= rv, s"hist=$hv random=$rv")
  }

  test("greedy dominates HistApprox's evaluated value on average") {
    val b      = smallBatches
    val hist   = new HistApprox(3, 0.2, 50, b.universe)
    val greedy = new GreedyTracker(3, b.universe)
    val recs   = StreamDriver.run(b, Seq(hist, greedy))
    val hv     = recs("HistApprox").map(_.value.toDouble).sum
    val gv     = recs("Greedy").map(_.value.toDouble).sum
    assert(gv >= 0.95 * hv, s"greedy=$gv hist=$hv")
    // and HistApprox stays close to Greedy (the paper's Fig 9 shape).
    assert(hv >= 0.7 * gv, s"hist=$hv greedy=$gv")
  }

  test("oracle calls and elapsed time are cumulative and non-decreasing") {
    val b    = smallBatches
    val hist = new HistApprox(3, 0.2, 50, b.universe)
    val recs = StreamDriver.run(b, Seq(hist))("HistApprox")
    recs.sliding(2).foreach {
      case Vector(a, c) =>
        assert(c.oracleCallsCum >= a.oracleCallsCum)
        assert(c.elapsedNanosCum >= a.elapsedNanosCum)
      case _ => ()
    }
  }

  test("throughput is positive and finite") {
    val b    = smallBatches
    val hist = new HistApprox(3, 0.2, 50, b.universe)
    val recs = StreamDriver.run(b, Seq(hist))
    val tp   = StreamDriver.throughputEdgesPerSec(b, recs("HistApprox"))
    assert(tp > 0 && !tp.isInfinite)
  }
}
