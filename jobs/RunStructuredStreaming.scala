package repro.jobs

import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.Trigger
import repro.core.HistApprox
import repro.experiments.Defaults
import repro.stream.{InteractionStreams, StructuredTdnRunner}
import repro.tdn.Lifetimes

/** Live Structured-Streaming demo: a rate source paces the synthetic
  * twitter-hk interaction stream; each micro-batch is routed through
  * `foreachBatch` into a HistApprox tracker; the current influential nodes
  * are printed as steps close.
  *
  * Usage: spark-submit --class repro.jobs.RunStructuredStreaming <jar> [steps] [rowsPerSec]
  */
object RunStructuredStreaming {
  def main(args: Array[String]): Unit = {
    val steps = Jobs.intArg(args, 0, 40)
    val rps   = Jobs.intArg(args, 1, 500)
    require(steps >= 1, s"steps must be >= 1, got $steps")
    require(rps >= 1, s"rowsPerSec must be >= 1, got $rps")
    val spark = Jobs.session("RunStructuredStreaming")
    try {
      val spec = InteractionStreams.twitterHK
      // Pre-materialize the (ts, src, dst, lifetime) rows in arrival order;
      // the rate stream paces indexes into this array, which foreachBatch
      // reads on the driver.
      val rows = Lifetimes.withGeometricLifetimes(
        InteractionStreams.prefix(spark, spec, steps),
        Defaults.p, Defaults.maxL, seed = spec.seed + 7777,
      ).select("ts", "src", "dst", "lifetime").collect()

      val runner = new StructuredTdnRunner(new HistApprox(10, 0.2, Defaults.maxL, spec.universe), spec.universe)
      var delivered = 0
      @volatile var done = rows.isEmpty

      val query = spark.readStream
        .format("rate")
        .option("rowsPerSecond", rps.toLong)
        .load()
        .select(col("value").cast("long"))
        .writeStream
        .trigger(Trigger.ProcessingTime("250 milliseconds"))
        .foreachBatch { (df: org.apache.spark.sql.DataFrame, _: Long) =>
          val idx = df.collect().map(_.getLong(0)).filter(_ < rows.length)
          if (idx.nonEmpty) {
            // Deliver whole timesteps only: a ts is closed once the rate stream
            // has passed its last interaction.
            val upto       = idx.max.toInt
            val deliverable = rows.slice(delivered, upto + 1)
            val lastFullTs  = if (upto + 1 >= rows.length) Int.MaxValue
                              else rows(upto + 1).getInt(0)
            val whole = deliverable.filter(_.getInt(0) < lastFullTs)
            if (whole.nonEmpty) {
              runner.processRows(whole)
              delivered += whole.length
              runner.results.takeRight(3).foreach { r =>
                println(s"[t=${r.t}] value=${r.value} seeds=${r.seeds.mkString(",")}")
              }
            }
            if (upto + 1 >= rows.length) done = true
          }
        }
        .start()

      // A query that dies (say, the runner rejects a late row) stops being
      // active; its exception then ends the job instead of the wait spinning on.
      while (!done && query.isActive) Thread.sleep(200)
      query.exception.foreach(e => throw e)
      query.stop()
      runner.drainTo(steps)
      println(s"final: t=${runner.currentStep - 1} seeds=${runner.results.last.seeds.mkString(",")}")
    } finally spark.stop()
  }
}
