package repro.perfbench

import java.io.{BufferedWriter, FileWriter}
import scala.collection.mutable
import repro.core.{BasicReduction, CelfGreedy, GreedyTracker, HistApprox}
import repro.stream.StreamDriver.{Batches, StepRecord}
import repro.tdn.Tdn

/** Spans kept in preallocated arrays until the run ends. */
final class Spans(capacity: Int) {
  private val pass = new Array[Int](capacity)
  private val step = new Array[Int](capacity)
  private val name = new Array[Int](capacity)
  private val start = new Array[Long](capacity)
  private val end = new Array[Long](capacity)
  private var n     = 0

  def add(p: Int, t: Int, id: Int, s: Long, e: Long): Unit = {
    pass(n) = p; step(n) = t; name(n) = id; start(n) = s; end(n) = e
    n += 1
  }

  /** Total seconds spent in spans called `id`. */
  def seconds(id: Int): Double = {
    var sum = 0L
    var i   = 0
    while (i < n) { if (name(i) == id) sum += end(i) - start(i); i += 1 }
    sum / 1e9
  }

  /** One line per span: trace id `pass.step` (shared by a step's spans),
    * name, parent name, start and end in ns since `origin`.
    */
  def write(path: String, passNames: Seq[String], origin: Long): Unit = {
    val out = new BufferedWriter(new FileWriter(path))
    try {
      out.write("trace\tspan\tparent\tstart_ns\tend_ns\n")
      var i = 0
      while (i < n) {
        val nm     = Traced.names(name(i))
        val parent = if (name(i) == Traced.Step) "" else "step"
        out.write(s"${passNames(pass(i))}.${step(i)}\t$nm\t$parent\t${start(i) - origin}\t${end(i) - origin}\n")
        i += 1
      }
    } finally out.close()
  }
}

/** The traced run: re-drives a stream in `StreamDriver.run`'s order of calls
  * and times every public call into `core`, `tdn` and the evaluation
  * `Digraph` from outside, as a span per call under a span per step.
  */
object Traced {
  val names: Vector[String] = Vector(
    "step", "tdn.add", "tdn.advance", "eval.to_digraph", "eval.spread",
    "hist.observe", "hist.query", "hist.end_step",
    "greedy.observe", "greedy.to_digraph", "greedy.celf", "greedy.end_step",
    "basic.observe", "basic.query", "basic.end_step",
  )
  val Step                    = names.indexOf("step")
  private val TdnAdd          = names.indexOf("tdn.add")
  private val TdnAdvance      = names.indexOf("tdn.advance")
  private val EvalToDigraph   = names.indexOf("eval.to_digraph")
  private val EvalSpread      = names.indexOf("eval.spread")
  private val HistObserve     = names.indexOf("hist.observe")
  private val HistQuery       = names.indexOf("hist.query")
  private val HistEndStep     = names.indexOf("hist.end_step")
  private val GreedyObserve   = names.indexOf("greedy.observe")
  private val GreedyToDigraph = names.indexOf("greedy.to_digraph")
  private val GreedyCelf      = names.indexOf("greedy.celf")
  private val GreedyEndStep   = names.indexOf("greedy.end_step")
  private val BasicObserve    = names.indexOf("basic.observe")
  private val BasicQuery      = names.indexOf("basic.query")
  private val BasicEndStep    = names.indexOf("basic.end_step")

  private val SpansPerStep = 9

  /** Per-layer results of one traced run, and the steps whose output
    * differed from the untraced run's.
    */
  final case class Result(metrics: Seq[(String, Double, String)], replayNanos: Long, mismatched: Int, spans: Spans)

  def run(w: Workload, batches: Batches, untraced: Map[Tracker, Vector[StepRecord]]): Result = {
    val n      = batches.steps.length
    val spans  = new Spans(w.trackers.length * n * SpansPerStep)
    val out    = mutable.ArrayBuffer.empty[(String, Double, String)]
    var replay = 0L
    var bad    = 0

    w.trackers.zipWithIndex.foreach { case (tr, p) =>
      val algo  = tr.make(w)
      val truth = new Tdn
      val expected = untraced(tr)
      var aliveSum, aliveMax, nodesSum, instSum, instMax, created, pruned = 0L
      System.gc()

      def span[A](t: Int, name: Int)(body: => A): A = {
        val s = System.nanoTime()
        val a = body
        spans.add(p, t, name, s, System.nanoTime())
        a
      }

      var t = 0
      while (t < n) {
        val batch = batches.steps(t)
        val s0    = System.nanoTime()
        span(t, TdnAdd)(truth.add(batch))
        val alive = truth.aliveCount
        aliveSum += alive; aliveMax = math.max(aliveMax, alive)
        val gt = span(t, EvalToDigraph)(truth.toDigraph(batches.universe))
        val seeds = algo match {
          case h: HistApprox =>
            val before = h.indices.toSet
            span(t, HistObserve)(h.observe(batch))
            val after = h.indices.toSet
            created += (after -- before).size; pruned += (before -- after).size
            instSum += after.size; instMax = math.max(instMax, after.size)
            val s = span(t, HistQuery)(h.querySolution)
            span(t, HistEndStep)(h.endStep())
            s
          case g: GreedyTracker =>
            span(t, GreedyObserve)(g.observe(batch))
            // querySolution's two calls, timed apart.
            val dg = span(t, GreedyToDigraph)(g.currentTdn.toDigraph(batches.universe))
            nodesSum += dg.nodeCount
            val s = span(t, GreedyCelf)(CelfGreedy.select(dg, w.k, g.counter)._1)
            span(t, GreedyEndStep)(g.endStep())
            s
          case b: BasicReduction =>
            span(t, BasicObserve)(b.observe(batch))
            val s = span(t, BasicQuery)(b.querySolution)
            span(t, BasicEndStep)(b.endStep())
            s
        }
        val value = span(t, EvalSpread)(if (seeds.isEmpty) 0 else gt.spreadOf(seeds))
        span(t, TdnAdvance)(truth.advance())
        val s1 = System.nanoTime()
        spans.add(p, t, Step, s0, s1)
        replay += s1 - s0

        val e = expected.lift(t)
        if (!e.exists(r => r.seeds == seeds && r.value == value && r.oracleCallsCum == algo.oracleCalls)) bad += 1
        t += 1
      }

      tr match {
        case Tracker.Hist =>
          val calls = algo.oracleCalls
          out += (("hist.oracle_calls", calls.toDouble, "count"))
          out += (("hist.ns_per_call", spans.seconds(HistObserve) * 1e9 / math.max(1L, calls), "ns"))
          out += (("hist.instances_mean", instSum.toDouble / n, "count"))
          out += (("hist.instances_max", instMax.toDouble, "count"))
          out += (("hist.instances_created", created.toDouble, "count"))
          out += (("hist.instances_pruned", pruned.toDouble, "count"))
          out += (("tdn.alive_edges_mean", aliveSum.toDouble / n, "count"))
          out += (("tdn.alive_edges_max", aliveMax.toDouble, "count"))
        case Tracker.Greedy =>
          out += (("greedy.oracle_calls", algo.oracleCalls.toDouble, "count"))
          out += (("greedy.nodes_mean", nodesSum.toDouble / n, "count"))
        case Tracker.Basic =>
          out += (("basic.oracle_calls", algo.oracleCalls.toDouble, "count"))
      }
    }

    val timed = Seq(
      HistObserve, HistQuery, HistEndStep, GreedyToDigraph, GreedyCelf,
      TdnAdd, TdnAdvance, EvalToDigraph, EvalSpread,
    ) ++ (if (w.trackers.contains(Tracker.Basic)) Seq(BasicObserve, BasicEndStep) else Nil)
    timed.foreach(i => out += ((s"${names(i)}_s", spans.seconds(i), "s")))
    Result(out.toSeq, replay, bad, spans)
  }
}
