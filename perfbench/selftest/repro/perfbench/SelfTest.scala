package repro.perfbench

import java.io.File
import repro.core.StreamingInfluenceAlgo
import repro.experiments.Experiments
import repro.stream.InteractionStreams
import repro.stream.StreamDriver.{Batches, StepRecord}
import repro.tdn.TimedEdge

/** Self-tests of the benchmark's own rules; build.py runs them after every
  * build and refuses a build they fail.
  *
  * Usage: SelfTest <work dir>
  */
object SelfTest {
  private var failures = 0

  private def check(what: String, ok: Boolean, detail: => String = ""): Unit = {
    println(s"${if (ok) "ok  " else "FAIL"} $what${if (ok) "" else s": $detail"}")
    if (!ok) failures += 1
  }

  private def rec(t: Int, value: Int, cum: Long, seeds: Seq[Int] = Nil) =
    StepRecord(t, "x", seeds, value, 0L, cum)

  /** k + 1 distinct seeds on every step, then a throw from `throwAt` on. */
  private final class Stub(k: Int, throwAt: Int) extends StreamingInfluenceAlgo {
    private var t = 0
    def name: String                        = "Stub"
    def observe(batch: Seq[TimedEdge]): Unit = if (t >= throwAt) throw new IllegalStateException("stub")
    def querySolution: Seq[Int]             = 0 to k
    def endStep(): Unit                     = t += 1
    def oracleCalls: Long                   = 0L
  }

  /** Keeps 4 MiB more on every step. */
  private final class Hoarder extends StreamingInfluenceAlgo {
    private var kept: List[Array[Byte]] = Nil
    def name: String                        = "Hoarder"
    def observe(batch: Seq[TimedEdge]): Unit = kept ::= new Array[Byte](4 << 20)
    def querySolution: Seq[Int]             = Nil
    def endStep(): Unit                     = ()
    def oracleCalls: Long                   = 0L
  }

  def main(args: Array[String]): Unit = {
    // Percentile rule: the highest percentile with >= 10 samples beyond it.
    check("p99.9 needs 10000 samples", Stats.highestSupported(10000) == 999 && Stats.highestSupported(9999) == 990)
    check("p99 needs 1000 samples", Stats.highestSupported(1000) == 990 && Stats.highestSupported(999) == 900)
    check("p90 needs 100, p50 needs 20", Stats.highestSupported(100) == 900 && Stats.highestSupported(20) == 500 &&
      Stats.highestSupported(19) == 0)
    val xs = (1L to 100L).reverse.toArray
    check("nearest-rank percentile", Stats.percentile(xs, 990) == 99 && Stats.percentile(xs, 500) == 50 &&
      Stats.percentile(xs, 1000) == 100)
    check("every workload supports p99", Workloads.all.forall(w => Stats.highestSupported(w.steps) >= 990))

    // Step latency from differences of the cumulative clock.
    val lat = Stats.stepNanos(Seq(rec(0, 0, 5), rec(1, 0, 12), rec(2, 0, 12), rec(3, 0, 30)))
    check("step latency from elapsedNanosCum", lat.sameElements(Array(5L, 7L, 0L, 18L)), lat.mkString(","))

    val med = Stats.stepMedians(Seq(Array(5L, 90L, 1L), Array(7L, 8L, 2L), Array(6L, 9L, 30L)))
    check("per-step medians across rounds", med.sameElements(Array(6L, 9L, 2L)), med.mkString(","))

    // Value ratio: steps where Greedy's value is 0 are skipped.
    val vr = Stats.valueRatio(Seq(rec(0, 2, 0), rec(1, 3, 0), rec(2, 4, 0)), Seq(rec(0, 4, 0), rec(1, 0, 0), rec(2, 8, 0)))
    check("value ratio skips Greedy zeros", vr == 0.5, vr.toString)

    // Retained heap: a tracker that keeps 4 MiB per step holds 4·(t+1) MiB.
    val held = Heap.retainedSamples(() => new Hoarder, Batches(10, IndexedSeq.fill(20)(Nil)))
    val want = (1 to 10).map(i => 8.0 * i)
    check("retained heap at ten evenly spaced steps",
      held.map(_ / 1048576.0).zip(want).forall { case (m, w) => math.abs(m - w) < 0.5 }, held.mkString(","))

    // A wrong tracker: k + 1 seeds on steps 0-4, a throw at step 5 of 20.
    val steps   = 20
    val batches = Batches(10, IndexedSeq.fill(steps)(Seq(TimedEdge(0, 1, 3))))
    val stub    = Replay.pass(Tracker.Hist, () => new Stub(10, throwAt = 5), batches)
    val failed  = Stats.failedSteps(stub.records, Nil, steps, 10, None, stub.failedAt)
    check("a stub with k + 1 seeds that throws fails every step", failed == steps && stub.failedAt == 5 &&
      stub.error.isDefined, s"failed=$failed failedAt=${stub.failedAt}")

    // A value under the floor fails; the same value at the floor passes.
    val low = Stats.failedSteps(Seq(rec(0, 3, 0), rec(1, 4, 0)), Seq(rec(0, 10, 0), rec(1, 10, 0)), 2, 10, Some(0.4), -1)
    check("values under the floor fail", low == 1, low.toString)

    // Fingerprint: equal inputs agree, one changed lifetime does not.
    val other = batches.copy(steps = batches.steps.updated(7, Seq(TimedEdge(0, 1, 4))))
    check("fingerprint", Workloads.fingerprint(batches) == Workloads.fingerprint(batches.copy()) &&
      Workloads.fingerprint(batches) != Workloads.fingerprint(other))

    // The replay's value ratio and inputs match Experiments on a short stream.
    val spark = Main.session(new File(args.headOption.getOrElse("selftest")))
    try {
      val w    = Workloads.byName("c2q-unit").get.copy(spec = InteractionStreams.twitterHK, steps = 300)
      val seed = InteractionStreams.twitterHK.seed
      val row  = Experiments.fig11(spark, Seq(w.spec), Seq(w.k), w.steps, w.eps, w.maxL, _ => w.p).head
      val ins  = w.inputs(spark, seed)
      check("unit-step inputs equal Experiments.batchesFor",
        ins == Experiments.batchesFor(spark, w.spec, w.steps, w.p, w.maxL))
      val passes = Replay.round(w.copy(trackers = Seq(Tracker.Hist, Tracker.Greedy)), ins)
      val ratio  = Stats.valueRatio(passes(0).records, passes(1).records)
      check("value ratio equals Experiments.fig11's", ratio == row.valueRatioToGreedy,
        s"$ratio vs ${row.valueRatioToGreedy}")
      check("the seed changes the input", Workloads.fingerprint(w.inputs(spark, seed + 1)) != Workloads.fingerprint(ins))
    } finally spark.stop()

    println(if (failures == 0) "self-tests passed" else s"$failures self-tests failed")
    sys.exit(if (failures == 0) 0 else 1)
  }
}
