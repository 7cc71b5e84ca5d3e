package repro.stream

import org.apache.spark.sql.{DataFrame, Row}
import repro.core.StreamingInfluenceAlgo
import repro.stream.StreamDriver.{StepLoop, StepRecord}

/** Structured-Streaming adapter: drives a [[StreamingInfluenceAlgo]] from
  * `foreachBatch` micro-batches of (ts, src, dst, lifetime) rows through the
  * batch driver's [[StreamDriver.StepLoop]], querying every step, so its
  * [[results]] compare row-for-row with a [[StreamDriver.run]] replay.
  *
  * Only the streaming rules live here: each micro-batch is grouped by `ts`
  * and every step up to its max ts is closed in order, including empty steps,
  * which still decay the TDN; rows below the loop's clock (late data) are
  * rejected, since a closed TDN step is immutable.
  */
final class StructuredTdnRunner(algo: StreamingInfluenceAlgo, universe: Int) {
  private val loop = new StepLoop(universe, Seq(algo))

  /** One record per closed step, in time order. */
  def results: Vector[StepRecord] = loop.records(algo.name)

  /** Logical time of the next step to be processed. */
  def currentStep: Int = loop.now

  /** Process one micro-batch (driver-side; called from foreachBatch). */
  def processMicroBatch(df: DataFrame): Unit = processRows(StreamDriver.collectRows(df))

  /** Row-level entry point (shared by tests that bypass a streaming query). */
  def processRows(rows: Array[Row]): Unit = {
    val parsed = StreamDriver.parseRows(rows)
    parsed.find(_._1 < currentStep).foreach { case (ts, e) =>
      throw new IllegalArgumentException(
        s"late interaction at ts=$ts (< logical clock $currentStep): $e — closed TDN steps are immutable")
    }
    parsed.groupBy(_._1).toSeq.sortBy(_._1).foreach { case (ts, group) =>
      drainTo(ts)
      loop.step(group.map(_._2).toSeq, query = true)
    }
  }

  /** Close any remaining empty steps up to `untilStep` (exclusive). */
  def drainTo(untilStep: Int): Unit =
    while (currentStep < untilStep) loop.step(Nil, query = true)
}
