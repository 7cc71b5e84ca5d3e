package repro.stream

import scala.util.Random
import repro.core.{BasicReduction, GreedyTracker, HistApprox, RandomTracker, StreamingInfluenceAlgo}
import repro.ic.DimTracker
import repro.stream.StreamDriver.Batches
import repro.tdn.TimedEdge

/** Fixed small streams whose per-step tracker records are pinned in
  * `src/test/resources/golden-steps.tsv` (see [[GoldenStepSpec]]).
  *
  * Each line of that file is one `StreamDriver.run` record:
  * `stream, tracker, t, seeds (comma-separated), value, cumulative oracle calls`.
  */
object GoldenStreams {
  final case class Case(name: String, maxL: Int, batches: Batches)

  val k   = 3
  val eps = 0.2

  /** The five trackers, in record order. DIM (β = 4, seed 3) was appended
    * last, so its rows follow the other four's in the golden file.
    */
  def trackers(c: Case): Seq[StreamingInfluenceAlgo] = {
    val n = c.batches.universe
    Seq(
      new HistApprox(k, eps, c.maxL, n),
      new BasicReduction(k, eps, c.maxL, n),
      new GreedyTracker(k, n),
      new RandomTracker(k, n, seed = 5L),
      new DimTracker(k, n, beta = 4, seed = 3L),
    )
  }

  /** Hand-written: one (u, v) twice in a batch with different lifetimes,
    * self-loops, lifetimes above L, empty steps, and a long-lived edge that
    * later shorter lifetimes are created under.
    */
  val edgeCases: Case = Case(
    "edge-cases",
    maxL = 6,
    Batches(
      10,
      IndexedSeq(
        Seq(TimedEdge(0, 1, 5), TimedEdge(0, 1, 2), TimedEdge(1, 2, 4)),
        Seq(TimedEdge(3, 3, 2), TimedEdge(2, 3, 9)),
        Nil,
        Seq(TimedEdge(4, 5, 1), TimedEdge(4, 5, 6), TimedEdge(5, 5, 6), TimedEdge(5, 6, 2)),
        Nil,
        Nil,
        Seq(TimedEdge(6, 7, 3), TimedEdge(7, 0, 1), TimedEdge(2, 8, 20), TimedEdge(6, 7, 5)),
        Seq(TimedEdge(8, 9, 2), TimedEdge(3, 4, 4)),
        Seq(TimedEdge(9, 0, 1), TimedEdge(0, 9, 3), TimedEdge(9, 9, 1)),
        Nil,
        Seq(TimedEdge(1, 2, 6), TimedEdge(1, 2, 1), TimedEdge(2, 4, 2), TimedEdge(4, 6, 7)),
        Seq(TimedEdge(5, 8, 3)),
        Nil,
        Seq(TimedEdge(6, 1, 2), TimedEdge(0, 3, 6)),
      ),
    ),
  )

  /** Seeded random stream: skewed sources, about one empty step in five,
    * lifetimes up to 1.5 L, occasional self-loops and in-batch repeats of a
    * pair with a fresh lifetime.
    */
  def random(name: String, universe: Int, steps: Int, maxL: Int, seed: Long): Case = {
    val rng = new Random(seed)
    def lifetime() = 1 + rng.nextInt(maxL * 3 / 2)
    val batches = (0 until steps).map { _ =>
      if (rng.nextInt(5) == 0) Nil
      else {
        val edges = (0 until 1 + rng.nextInt(4)).map { _ =>
          val u = (rng.nextDouble() * rng.nextDouble() * universe).toInt
          val v = if (rng.nextInt(12) == 0) u else rng.nextInt(universe)
          TimedEdge(u, v, lifetime())
        }
        if (rng.nextInt(3) == 0) edges :+ edges.head.copy(lifetime = lifetime()) else edges
      }
    }
    Case(name, maxL, Batches(universe, batches))
  }

  val cases: Seq[Case] = Seq(
    edgeCases,
    random("random-short", universe = 16, steps = 60, maxL = 8, seed = 11L),
    random("random-long", universe = 30, steps = 80, maxL = 40, seed = 23L),
  )

  /** Every tracker's step records for `c`, one tab-separated line each. */
  def records(c: Case): Seq[String] = {
    val algos = trackers(c)
    val recs  = StreamDriver.run(c.batches, algos)
    algos.flatMap { a =>
      recs(a.name).map { r =>
        Seq(c.name, r.algo, r.t, r.seeds.mkString(","), r.value, r.oracleCallsCum).mkString("\t")
      }
    }
  }
}
