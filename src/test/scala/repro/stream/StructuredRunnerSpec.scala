package repro.stream

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.SparkSpec
import repro.core.HistApprox
import repro.tdn.Lifetimes

class StructuredRunnerSpec extends SparkSpec {

  private val universe = InteractionStreams.twitterHK.universe

  private def interactionRows(maxSteps: Int) =
    Lifetimes.withGeometricLifetimes(
      InteractionStreams.prefix(spark, InteractionStreams.twitterHK, maxSteps),
      p = 0.05, maxL = 40, seed = 9L,
    ).select("ts", "src", "dst", "lifetime")
      .collect()

  test("runner replays rows into per-step observe/endStep calls") {
    val runner = new StructuredTdnRunner(new HistApprox(3, 0.2, 40, universe), universe)
    runner.processRows(interactionRows(10))
    assert(runner.currentStep == 10)
    assert(runner.results.size == 10)
    assert(runner.results.map(_.t) == (0 until 10))
  }

  test("empty steps still advance the logical clock and decay the TDN") {
    import spark.implicits._
    val rows = Seq((0, 1, 2, 1), (5, 3, 4, 1)).toDF("ts", "src", "dst", "lifetime").collect()
    val runner = new StructuredTdnRunner(new HistApprox(1, 0.2, 40, 10), 10)
    runner.processRows(rows)
    assert(runner.currentStep == 6)
    // Steps 1..4 had nothing alive (lifetime-1 edge expired after step 0).
    assert(runner.results.map(_.value) == Seq(2, 0, 0, 0, 0, 2))
  }

  test("late rows (before the logical clock) are rejected") {
    import spark.implicits._
    val runner = new StructuredTdnRunner(new HistApprox(1, 0.2, 40, 10), 10)
    runner.processRows(Seq((3, 1, 2, 1)).toDF("ts", "src", "dst", "lifetime").collect())
    assert(runner.currentStep == 4)
    intercept[IllegalArgumentException] {
      runner.processRows(Seq((1, 3, 4, 1)).toDF("ts", "src", "dst", "lifetime").collect())
    }
  }

  test("malformed rows are rejected, naming the row, before any step closes") {
    import org.apache.spark.sql.Row
    val runner = new StructuredTdnRunner(new HistApprox(1, 0.2, 40, 10), 10)
    // Each bad row follows a good row at ts 0, whose step a bad row at ts 1
    // must not close: an id outside universe 10, or an expiry past Int.MaxValue.
    Seq(Row(0, 1, null, 3), Row(-1, 1, 2, 3), Row(0, 1, 2, 0), Row(1, 1, 10, 3), Row(1, -1, 2, 3),
      Row(1, 1, 2, Int.MaxValue)).foreach { bad =>
      val e = intercept[IllegalArgumentException](runner.processRows(Array(Row(0, 1, 2, 3), bad)))
      assert(e.getMessage.contains(bad.toString), e.getMessage)
    }
    assert(runner.currentStep == 0 && runner.results.isEmpty)
  }

  test("a micro-batch with a non-int column is rejected, naming it, before any step closes") {
    import spark.implicits._
    val runner = new StructuredTdnRunner(new HistApprox(1, 0.2, 40, 10), 10)
    val df     = Seq((0, 1L, 2, 3), (1, 3L, 4, 1)).toDF("ts", "src", "dst", "lifetime")
    val e      = intercept[IllegalArgumentException](runner.processMicroBatch(df))
    assert(e.getMessage.contains("src is bigint"), e.getMessage)
    // The same rows handed over directly, as the streaming job does, are
    // rejected by the row check, naming the first.
    val r = intercept[IllegalArgumentException](runner.processRows(df.collect()))
    assert(r.getMessage.contains("[0,1,2,3]"), r.getMessage)
    assert(runner.currentStep == 0 && runner.results.isEmpty)
  }

  test("drainTo closes empty steps") {
    val runner = new StructuredTdnRunner(new HistApprox(1, 0.2, 40, 10), 10)
    runner.drainTo(7)
    assert(runner.currentStep == 7)
    assert(runner.results.forall(_.value == 0))
  }

  test("streaming replay equals batch replay row-for-row (same algorithm, same stream)") {
    val maxSteps = 25
    val rows     = interactionRows(maxSteps)

    // Batch replay via StreamDriver.
    val df = Lifetimes.withGeometricLifetimes(
      InteractionStreams.prefix(spark, InteractionStreams.twitterHK, maxSteps),
      p = 0.05, maxL = 40, seed = 9L)
    val batches = StreamDriver.batchesFromDf(df, universe, maxSteps)
    val batchRecs = StreamDriver
      .run(batches, Seq(new HistApprox(3, 0.2, 40, universe)), queryEvery = 1)("HistApprox")

    // Streaming replay via the runner: three micro-batches, split on
    // timestep boundaries (a closed TDN step is immutable, so a micro-batch
    // must carry whole timesteps).
    val runner = new StructuredTdnRunner(new HistApprox(3, 0.2, 40, universe), universe)
    val byStep = rows.groupBy(_.getInt(0)).toSeq.sortBy(_._1).map(_._2)
    byStep.grouped(math.max(1, byStep.length / 3 + 1)).foreach { groups =>
      runner.processRows(groups.flatten.toArray)
    }
    runner.drainTo(maxSteps)

    assert(runner.results.size == batchRecs.size)
    runner.results.zip(batchRecs).foreach { case (s, b) =>
      assert(s.t == b.t)
      assert(s.seeds == b.seeds, s"t=${s.t}")
      assert(s.value == b.value, s"t=${s.t}")
      assert(s.oracleCallsCum == b.oracleCallsCum, s"t=${s.t}")
    }
  }

  test("end-to-end through Structured Streaming foreachBatch (MemoryStream)") {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    val rows = interactionRows(12)
      .map(r => (r.getInt(0), r.getInt(1), r.getInt(2), r.getInt(3)))

    val mem    = MemoryStream[(Int, Int, Int, Int)]
    val runner = new StructuredTdnRunner(new HistApprox(3, 0.2, 40, universe), universe)
    val query = mem
      .toDF()
      .toDF("ts", "src", "dst", "lifetime")
      .writeStream
      .outputMode("append")
      .foreachBatch { (df: org.apache.spark.sql.DataFrame, _: Long) =>
        runner.processMicroBatch(df)
      }
      .start()
    try {
      // Feed whole timesteps per micro-batch, in order.
      rows.groupBy(_._1).toSeq.sortBy(_._1).foreach { case (_, group) =>
        mem.addData(group.toSeq)
        query.processAllAvailable()
      }
    } finally query.stop()
    runner.drainTo(12)

    // Must equal the pure-batch replay.
    val df = Lifetimes.withGeometricLifetimes(
      InteractionStreams.prefix(spark, InteractionStreams.twitterHK, 12),
      p = 0.05, maxL = 40, seed = 9L)
    val batches = StreamDriver.batchesFromDf(df, universe, 12)
    val batchRecs = StreamDriver
      .run(batches, Seq(new HistApprox(3, 0.2, 40, universe)), queryEvery = 1)("HistApprox")
    assert(runner.results.map(r => (r.t, r.seeds, r.value, r.oracleCallsCum)) ==
      batchRecs.map(r => (r.t, r.seeds, r.value, r.oracleCallsCum)))
  }
}
