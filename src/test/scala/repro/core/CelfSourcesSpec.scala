package repro.core

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.tdn.TimedEdge

/** Differential test of [[CelfGreedy]]'s source-only heap and sink stream
  * against [[PerNodeCelf]], the one-heap-per-node design they replaced:
  * random TDN streams go through a [[GreedyTracker]], and every query's seeds,
  * value and oracle calls must equal the reference's on the same live graph.
  */
class CelfSourcesSpec extends AnyFunSuite {

  /** An empty step, or 1–6 edges. Half are drawn from `pool`, so pairs repeat
    * and their expiries rise; an eighth are self-loops; lifetimes are 1–6, so
    * out-lists empty often.
    */
  private def batch(rnd: Random, universe: Int, pool: IndexedSeq[(Int, Int)]): Seq[TimedEdge] =
    if (rnd.nextInt(6) == 0) Nil
    else
      Seq.fill(1 + rnd.nextInt(6)) {
        val (u, v) =
          if (rnd.nextBoolean()) pool(rnd.nextInt(pool.length))
          else if (rnd.nextInt(8) == 0) { val u = rnd.nextInt(universe); (u, u) }
          else (rnd.nextInt(universe), rnd.nextInt(universe))
        TimedEdge(u, v, 1 + rnd.nextInt(6))
      }

  test("every query equals one heap over every node on the same live graph") {
    var kAboveSources = 0 // queries with k above the number of sources
    var emptied       = 0 // steps where a node lost its last out-edge yet stayed present
    // A sink is popped from the stream only once every sink is covered, that
    // is once every gain left is at most 1: queries that stop below k seeds
    // drain the stream, and queries whose k-th seed gains 1 can stop inside it.
    var drained = 0
    var gainOne = 0
    for (seed <- 1 to 80) {
      val rnd      = new Random(seed)
      val universe = 2 + rnd.nextInt(66)
      val k        = 1 + rnd.nextInt(12)
      val pool     = IndexedSeq.fill(4)((rnd.nextInt(universe), rnd.nextInt(universe)))
      val tracker  = new GreedyTracker(k, universe)
      val g        = tracker.currentTdn.toDigraph(universe)
      for (step <- 0 until 40) {
        val at = s"seed $seed (|V| $universe, k $k) step $step"
        tracker.observe(batch(rnd, universe, pool))
        val calls           = tracker.oracleCalls
        val seeds           = tracker.querySolution
        val ref             = new OracleCounter
        val (want, wantVal) = PerNodeCelf.select(g, k, ref)
        assert(seeds == want, s"$at: seeds")
        assert(g.spreadOf(seeds) == wantVal, s"$at: value")
        assert(CelfGreedy.select(g, k, new OracleCounter)._2 == wantVal, s"$at: returned value")
        assert(tracker.oracleCalls - calls == ref.calls, s"$at: oracle calls")
        val srcs = g.sourceArray.toSeq
        if (k > srcs.length && srcs.nonEmpty) kAboveSources += 1
        val hasSink = g.prevSink(universe - 1) >= 0
        if (hasSink && seeds.length < k) drained += 1
        if (hasSink && seeds.length == k && g.spreadOf(seeds) - g.spreadOf(seeds.init) == 1) gainOne += 1
        tracker.endStep()
        if (srcs.exists(v => !g.sourceArray.toSeq.contains(v) && g.nodeArray.contains(v))) emptied += 1
      }
    }
    assert(kAboveSources > 0 && emptied > 0 && drained > 0 && gainOne > 0, (kAboveSources, emptied, drained, gainOne))
  }
}
