package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.experiments.Experiments
import repro.stream.{InteractionStreams, StreamDriver}
import repro.stream.InteractionStreams.StreamSpec
import repro.tdn.Lifetimes

/** The benchmark's fixed workloads. Every one uses k = 10 and one replay
  * thread; README.md records why each was chosen.
  *
  * @param unitSteps  one interaction per step (`unitStepPrefix`) if true,
  *                   else the stream's natural batches (`prefix`)
  * @param warmupSteps length of the seed-shifted warm-up replay
  * @param trackers   tracker kinds replayed, each in its own pass; Greedy is
  *                   always among them because the value gates compare
  *                   against it
  */
final case class Workload(
    name: String,
    spec: StreamSpec,
    unitSteps: Boolean,
    steps: Int,
    p: Double,
    maxL: Int,
    eps: Double,
    trackers: Seq[Tracker],
    warmupSteps: Int,
    k: Int = 10,
) {

  /** The replayed stream for `seed`: the seed replaces the spec's own, and
    * the lifetime seed is derived from it as `Experiments.batchesFor` does.
    */
  def inputs(spark: SparkSession, seed: Long, nSteps: Int = steps): StreamDriver.Batches = {
    val s = spec.copy(seed = seed)
    if (unitSteps) Experiments.batchesFor(spark, s, nSteps, p, maxL)
    else {
      val df = Lifetimes.withGeometricLifetimes(
        InteractionStreams.prefix(spark, s, nSteps), p, maxL, seed = s.seed + 7777,
      )
      StreamDriver.batchesFromDf(df, s.universe, nSteps)
    }
  }
}

object Workloads {
  import Tracker._

  val all: Seq[Workload] = Seq(
    Workload("c2q-unit", InteractionStreams.stackOverflowC2Q, unitSteps = true, steps = 10000,
      p = 0.002, maxL = 5000, eps = 0.2, trackers = Seq(Hist, Greedy), warmupSteps = 3000),
    Workload("hk-batch", InteractionStreams.twitterHK, unitSteps = false, steps = 3000,
      p = 0.01, maxL = 5000, eps = 0.2, trackers = Seq(Hist, Greedy), warmupSteps = 1000),
    Workload("bk-fig7", InteractionStreams.brightkite, unitSteps = true, steps = 3000,
      p = 0.016, maxL = 300, eps = 0.1, trackers = Seq(Basic, Hist, Greedy), warmupSteps = 1000),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Seed of the warm-up stream: shifted so it never equals the timed one. */
  def warmupSeed(seed: Long): Long = seed + 1000003L

  /** Edge count and an FNV-1a hash over every (t, u, v, lifetime), so runs
    * can show they replayed identical input.
    */
  def fingerprint(b: StreamDriver.Batches): (Long, String) = {
    var h = 0xcbf29ce484222325L
    def mix(x: Int): Unit = { h ^= x & 0xffffffffL; h *= 0x100000001b3L }
    b.steps.zipWithIndex.foreach { case (batch, t) =>
      batch.foreach { e => mix(t); mix(e.u); mix(e.v); mix(e.lifetime) }
    }
    (b.totalEdges, f"$h%016x")
  }
}
