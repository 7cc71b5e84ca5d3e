package repro.perfbench

import java.lang.management.ManagementFactory
import scala.util.control.NonFatal
import repro.core.{BasicReduction, GreedyTracker, HistApprox, StreamingInfluenceAlgo}
import repro.stream.StreamDriver
import repro.stream.StreamDriver.{Batches, StepRecord}
import repro.tdn.TimedEdge

/** A tracker the benchmark replays; `key` prefixes its metric names. */
sealed abstract class Tracker(val key: String) {
  def make(w: Workload): StreamingInfluenceAlgo

  /** Proven lower bound on f_t(S)/f_t(S_greedy), if any. Sound because
    * Greedy ≤ OPT (Theorems 4 and 7).
    */
  def ratioFloor(eps: Double): Option[Double]
}

object Tracker {
  case object Hist extends Tracker("hist") {
    def make(w: Workload) = new HistApprox(w.k, w.eps, w.maxL, w.spec.universe)
    def ratioFloor(eps: Double) = Some(1.0 / 3 - eps)
  }
  case object Greedy extends Tracker("greedy") {
    def make(w: Workload) = new GreedyTracker(w.k, w.spec.universe)
    def ratioFloor(eps: Double) = None
  }
  case object Basic extends Tracker("basic") {
    def make(w: Workload) = new BasicReduction(w.k, w.eps, w.maxL, w.spec.universe)
    def ratioFloor(eps: Double) = Some(0.5 - eps)
  }
}

/** Delegates to `inner` until it throws; from then on it answers with no
  * seeds, so one failing tracker cannot abort the replay of the others.
  */
final class Guarded(val inner: StreamingInfluenceAlgo) extends StreamingInfluenceAlgo {
  private var t = 0

  /** Step of the first throw, or -1. */
  var failedAt: Int    = -1
  var error: Throwable = null

  private def guard[A](orElse: A)(body: => A): A =
    if (failedAt >= 0) orElse
    else
      try body
      catch { case NonFatal(e) => failedAt = t; error = e; orElse }

  override def name: String                        = inner.name
  override def observe(batch: Seq[TimedEdge]): Unit = guard(())(inner.observe(batch))
  override def querySolution: Seq[Int]             = guard(Seq.empty[Int])(inner.querySolution)
  override def endStep(): Unit                     = { guard(())(inner.endStep()); t += 1 }
  override def oracleCalls: Long                   = guard(0L)(inner.oracleCalls)
}

/** The benchmark's summary rules, kept apart so the self-tests can pin them. */
object Stats {

  /** Per-step latency of observe + querySolution + endStep: successive
    * differences of the cumulative clock `StreamDriver.run` records.
    */
  def stepNanos(recs: Seq[StepRecord]): Array[Long] = {
    val out  = new Array[Long](recs.length)
    var prev = 0L
    recs.iterator.zipWithIndex.foreach { case (r, i) => out(i) = r.elapsedNanosCum - prev; prev = r.elapsedNanosCum }
    out
  }

  /** Each step's median time across rounds of the same replay: a stall that
    * hits a step in one round only does not count.
    */
  def stepMedians(rounds: Seq[Array[Long]]): Array[Long] =
    Array.tabulate(rounds.head.length)(t => median(rounds.map(_(t).toDouble)).toLong)

  /** Nearest-rank percentile `perMille`/10 of `xs` (need not be sorted). */
  def percentile(xs: Array[Long], perMille: Int): Long = {
    require(xs.nonEmpty && perMille > 0 && perMille <= 1000)
    val sorted = xs.sorted
    sorted(rank(sorted.length, perMille) - 1)
  }

  private def rank(n: Int, perMille: Int): Int = ((perMille.toLong * n + 999) / 1000).toInt

  /** The highest of p99.9, p99, p90 and p50 with at least ten samples beyond
    * it in `n` samples, in per mille; 0 if none is.
    */
  def highestSupported(n: Int): Int =
    Seq(999, 990, 900, 500).find(q => n - rank(n, q) >= 10).getOrElse(0)

  /** Mean over steps of f_t(S)/f_t(S_greedy), skipping steps where Greedy's
    * value is 0 — the rule `Experiments` uses for Figs 9, 11–13.
    */
  def valueRatio(recs: Seq[StepRecord], greedy: Seq[StepRecord]): Double = {
    val rs = recs.zip(greedy).collect { case (r, g) if g.value > 0 => r.value.toDouble / g.value }
    if (rs.isEmpty) 0.0 else rs.sum / rs.size
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Steps of one pass that fail a check: a seed set with more than k
    * distinct nodes, a value below `floor` × Greedy's, a missing record, and
    * every step from the tracker's first throw on.
    */
  def failedSteps(
      recs: Seq[StepRecord],
      greedy: Seq[StepRecord],
      steps: Int,
      k: Int,
      floor: Option[Double],
      failedAt: Int,
  ): Int = {
    val bad = recs.iterator.zipWithIndex.count { case (r, t) =>
      (failedAt >= 0 && t >= failedAt) ||
      r.seeds.distinct.size > k ||
      floor.exists(f => t < greedy.length && r.value < f * greedy(t).value)
    }
    bad + math.max(0, steps - recs.length)
  }
}

/** Heap measurements; each forces full collections, so none runs inside a
  * timed pass.
  */
object Heap {
  private def used(): Long = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed

  /** Used heap after full collections repeated until it stops shrinking:
    * objects freed through reference queues need more than one.
    */
  def usedAfterGc(): Long = {
    var before = Long.MaxValue
    var after  = used()
    var n      = 0
    while (after < before && n < 8) {
      before = after
      System.gc()
      after = used()
      n += 1
    }
    after
  }

  /** Heap retained by a fresh tracker at ten evenly spaced steps of a replay
    * of `batches`, the last one at its end: used heap after a full GC, minus
    * the same before the tracker existed. No pass is timed meanwhile.
    */
  def retainedSamples(make: () => StreamingInfluenceAlgo, batches: Batches): Seq[Long] = {
    val n       = batches.steps.length
    val at      = (1 to 10).map(i => i * n / 10 - 1)
    val samples = new Array[Long](at.length)
    val base    = usedAfterGc()
    val algo    = make()
    var t       = 0
    var i       = 0
    while (t < n) {
      algo.observe(batches.steps(t))
      algo.querySolution
      algo.endStep()
      if (t == at(i)) { samples(i) = usedAfterGc() - base; i += 1 }
      t += 1
    }
    samples.toSeq
  }
}

/** One tracker's untraced `StreamDriver.run` pass. */
final case class Pass(
    tracker: Tracker,
    records: Vector[StepRecord],
    wallNanos: Long,
    failedAt: Int,
    error: Option[Throwable],
)

object Replay {

  /** Replay `batches` through `make()` in its own `StreamDriver.run` pass.
    * The heap is collected first, so no pass pays for another's garbage.
    */
  def pass(tracker: Tracker, make: () => StreamingInfluenceAlgo, batches: Batches): Pass = {
    val guarded = new Guarded(make())
    System.gc()
    val t0      = System.nanoTime()
    val records = StreamDriver.run(batches, Seq(guarded), queryEvery = 1)(guarded.name)
    Pass(tracker, records, System.nanoTime() - t0, guarded.failedAt, Option(guarded.error))
  }

  /** One round: every tracker of `w`, each in its own pass. */
  def round(w: Workload, batches: Batches): Seq[Pass] =
    w.trackers.map(tr => pass(tr, () => tr.make(w), batches))

  /** Failed steps of each pass in a round, gated against the Greedy pass. */
  def failedSteps(w: Workload, passes: Seq[Pass]): Map[Tracker, Int] = {
    val greedy = passes.find(_.tracker == Tracker.Greedy).map(_.records).getOrElse(Vector.empty)
    passes.map { p =>
      p.tracker -> Stats.failedSteps(p.records, greedy, w.steps, w.k, p.tracker.ratioFloor(w.eps), p.failedAt)
    }.toMap
  }
}
