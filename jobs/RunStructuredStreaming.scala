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
    val spark = Jobs.session("RunStructuredStreaming")
    try {
      val spec = InteractionStreams.twitterHK
      // Pre-materialize the interactions in arrival order; the rate stream
      // paces indexes into this array.
      val rows = Lifetimes.withGeometricLifetimes(
        InteractionStreams.prefix(spark, spec, steps),
        Defaults.p, Defaults.maxL, seed = spec.seed + 7777,
      ).select("ts", "src", "dst", "lifetime").collect()
      val lookup = spark.sparkContext.broadcast(rows.map(r =>
        (r.getInt(0), r.getInt(1), r.getInt(2), r.getInt(3))))

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
            val deliverable = lookup.value.slice(delivered, upto + 1)
            val lastFullTs  = if (upto + 1 >= rows.length) Int.MaxValue
                              else lookup.value(upto + 1)._1
            val whole = deliverable.filter(_._1 < lastFullTs)
            if (whole.nonEmpty) {
              runner.processRows(whole.map(t => org.apache.spark.sql.Row(t._1, t._2, t._3, t._4)))
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
