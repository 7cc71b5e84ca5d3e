package repro.perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import scala.collection.mutable
import org.apache.spark.sql.SparkSession

/** Replays one workload through its trackers and writes every metric to
  * `<out>/result.json`; `perfbench/run.py` builds this and launches it.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  */
object Main {
  private val MiB          = 1048576.0
  private val Generations  = 3
  // Fewest timed rounds: per-step medians need three to outvote a stall.
  private val MinRounds    = 3

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = Workloads.byName(opts("workload")).getOrElse(sys.error(s"unknown workload ${opts("workload")}"))
    val seed    = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val trace   = opts("trace") == "1"
    val outDir  = new File(opts("out"))
    outDir.mkdirs()
    sys.exit(run(w, seed, seconds, trace, outDir))
  }

  def session(outDir: File): SparkSession = {
    val s = SparkSession.builder
      .master("local[2]")
      .appName("perfbench")
      // spark.range + rand(seed) seed each partition by its index, so the
      // partition count must not follow the core count.
      .config("spark.default.parallelism", "4")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", new File(outDir, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(outDir, "spark-warehouse").getPath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** @return the process exit code: 0 iff every check passed */
  def run(w: Workload, seed: Long, seconds: Double, trace: Boolean, outDir: File): Int = {
    val metrics  = mutable.ArrayBuffer.empty[(String, Double, String)]
    def metric(name: String, value: Double, unit: String): Unit = {
      metrics += ((name, value, unit))
      println(f"$name%-24s = ${digits(value)} $unit")
    }
    var failed    = 0L
    var attempted = 0L

    // ---- set-up: Spark, generation and collect (repeated), warm-up replay
    val spark = session(outDir)
    val gens = (1 to Generations).map { _ =>
      val t0 = System.nanoTime()
      val b  = w.inputs(spark, seed)
      val wu = w.inputs(spark, Workloads.warmupSeed(seed), w.warmupSteps)
      (System.nanoTime() - t0, b, wu)
    }
    spark.stop()
    val batches = gens.head._2
    val warmup  = gens.head._3
    val prints  = gens.map(g => Workloads.fingerprint(g._2))
    val (edges, hash) = prints.head
    println(s"workload ${w.name} seed $seed: ${batches.steps.length} steps, $edges edges, fingerprint $hash")
    if (prints.distinct.size != 1) {
      println(s"FAIL: generation is not deterministic: ${prints.distinct}")
      failed += batches.steps.length
    }
    val genNanos = Stats.median(gens.map(_._1.toDouble))

    val wu0 = System.nanoTime()
    Replay.round(w, warmup)
    val warmNanos = System.nanoTime() - wu0

    // Process start to first timed step, counting generation once (its median).
    val sinceStartNanos = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) * 1e6
    val setupNanos      = sinceStartNanos - gens.map(_._1).sum + genNanos
    println(f"set-up: generation ${genNanos / 1e9}%.3f s (median of $Generations), warm-up replay ${warmNanos / 1e9}%.3f s")

    // ---- timed rounds, each a full replay of every tracker, for --seconds
    // but at least MinRounds
    val rounds = mutable.ArrayBuffer.empty[Seq[Pass]]
    val t0 = System.nanoTime()
    var more = true
    while (more) {
      val passes = Replay.round(w, batches)
      val fails  = Replay.failedSteps(w, passes)
      passes.foreach { p =>
        p.error.foreach(e => println(s"FAIL: ${p.tracker.key} threw at step ${p.failedAt}: $e"))
        // Every round must repeat the first exactly.
        val diverged = rounds.headOption.fold(0) { first =>
          val r0 = first.find(_.tracker == p.tracker).get.records
          p.records.zip(r0).count { case (a, b) => a.seeds != b.seeds || a.value != b.value || a.oracleCallsCum != b.oracleCallsCum }
        }
        if (fails(p.tracker) + diverged > 0)
          println(s"FAIL: ${p.tracker.key}: ${fails(p.tracker)} steps failed a check, $diverged diverged from round 1")
        failed += fails(p.tracker) + diverged
        attempted += w.steps
      }
      rounds += passes
      println(s"round ${rounds.length}: " + passes.map(p => f"${p.tracker.key} ${p.wallNanos / 1e9}%.3f s").mkString(", "))
      val elapsed = (System.nanoTime() - t0) / 1e9
      more = rounds.length < MinRounds || elapsed * (rounds.length + 1) / rounds.length <= seconds
    }

    // ---- end-to-end metrics (untraced)
    def passOf(ps: Seq[Pass], tr: Tracker): Pass = ps.find(_.tracker == tr).get
    val first = rounds.head

    metric("setup_s", setupNanos / 1e9, "s")
    val replayS = Stats.median(rounds.toSeq.map(_.map(_.wallNanos).sum / 1e9))
    metric("replay_s", replayS, "s")
    w.trackers.foreach { tr =>
      val k     = tr.key
      val steps = Stats.stepMedians(rounds.toSeq.map(ps => Stats.stepNanos(passOf(ps, tr).records)))
      metric(s"${k}_edges_per_s", edges * 1e9 / steps.sum, "edges/s")
      metric(s"${k}_step_p50_us", Stats.percentile(steps, 500) / 1e3, "us")
      metric(s"${k}_step_p99_us", Stats.percentile(steps, 990) / 1e3, "us")
      val q = Stats.highestSupported(steps.length)
      println(f"$k step latency: ${steps.length} samples, each a median of ${rounds.length} rounds; " +
        f"highest supported percentile p${q / 10.0}%.1f = ${Stats.percentile(steps, q) / 1e3}%.1f us")
    }
    val hist   = passOf(first, Tracker.Hist).records
    val greedy = passOf(first, Tracker.Greedy).records
    metric("hist_value_ratio", Stats.valueRatio(hist, greedy), "ratio")
    metric("hist_calls_per_edge", hist.last.oracleCallsCum.toDouble / edges, "calls/edge")
    // Sampled in an untimed replay of the warm-up stream: the forced GCs stay
    // out of the timed passes, and the stopped Spark session has long freed
    // its memory.
    val retained = Heap.retainedSamples(() => Tracker.Hist.make(w), warmup)
    metric("hist_state_mb", retained.sum / retained.size / MiB, "MB")

    // ---- traced run: same stream, per-layer metrics, kept out of the above
    if (trace) {
      val res = Traced.run(w, batches, first.map(p => p.tracker -> p.records).toMap)
      metric("stream.generate_s", genNanos / 1e9, "s")
      res.metrics.foreach { case (n, v, u) => metric(n, v, u) }
      metric("hist.retained_mb_max", retained.max / MiB, "MB")
      metric("trace.overhead_ratio", res.replayNanos / 1e9 / replayS, "ratio")
      val spanFile = new File(outDir, s"spans-${w.name}-seed$seed.tsv")
      res.spans.write(spanFile.getPath, w.trackers.map(_.key), t0)
      println(s"spans written to ${spanFile.getPath}")
      if (res.mismatched > 0) println(s"FAIL: the traced run's outputs differ from the untraced run's at ${res.mismatched} steps")
      failed += res.mismatched
      attempted += w.trackers.length.toLong * w.steps
    }

    println(s"steps_attempted          = $attempted count")
    println(s"steps_failed             = $failed count")
    writeResult(new File(outDir, "result.json"), failed == 0, attempted, failed, metrics.toSeq)
    if (failed == 0) 0 else 1
  }

  /** A value with every digit it was measured with. */
  private def digits(v: Double): String = BigDecimal(v).toString

  private def writeResult(f: File, correct: Boolean, attempted: Long, failed: Long, ms: Seq[(String, Double, String)]): Unit = {
    val body = ms.map { case (n, v, u) => s""""$n": {"value": ${digits(v)}, "unit": "$u"}""" }.mkString(", ")
    val out  = new PrintWriter(f)
    try out.println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$body}}""")
    finally out.close()
  }
}
