package repro.core

import scala.util.Random
import repro.tdn.{Tdn, TimedEdge}

/** Recompute-from-scratch trackers: maintain the TDN and rerun a static
  * algorithm on G_t at every query. These are the paper's non-streaming
  * baselines wrapped in the [[StreamingInfluenceAlgo]] contract.
  *
  * The TDN's live graph over `universe` exists from construction, so a batch
  * with a node id outside the universe is rejected before it changes state.
  */
abstract class TdnTracker(val universe: Int) extends StreamingInfluenceAlgo {
  protected val tdn   = new Tdn
  protected val graph = tdn.toDigraph(universe)

  def currentTdn: Tdn = tdn

  override def observe(batch: Seq[TimedEdge]): Unit = tdn.add(batch)
  override def endStep(): Unit = tdn.advance()
}

/** "Greedy": CELF rerun on G_t at every query (1 − 1/e approx). */
final class GreedyTracker(k: Int, universe: Int) extends TdnTracker(universe) {
  val counter = new OracleCounter

  override def name: String = "Greedy"

  override def querySolution: Seq[Int] = CelfGreedy.select(graph, k, counter)._1

  override def oracleCalls: Long = counter.calls
}

/** "Random": k nodes uniformly from V_t. */
final class RandomTracker(k: Int, universe: Int, seed: Long) extends TdnTracker(universe) {
  private val rng = new Random(seed)

  override def name: String = "Random"

  override def querySolution: Seq[Int] = RandomSelect.select(graph, k, rng)

  override def oracleCalls: Long = 0L
}
