package repro.core

import scala.collection.mutable
import scala.util.Random
import repro.tdn.{Tdn, TimedEdge}

/** A tracker of k seeds that owns the TDN G_t and its live graph over
  * `universe`.
  *
  * k < 1 is rejected at construction. The live graph exists from
  * construction, so a batch with a node id outside the universe is rejected
  * before it changes state.
  */
abstract class TdnTracker(k: Int, val universe: Int) extends StreamingInfluenceAlgo {
  require(k >= 1, "k must be >= 1")

  protected val tdn   = new Tdn
  protected val graph = tdn.toDigraph(universe)

  def currentTdn: Tdn = tdn

  override def observe(batch: Seq[TimedEdge]): Unit = tdn.add(batch)
  override def endStep(): Unit = tdn.advance()
}

/** The skeleton that BasicReduction (Alg. 2) and HistApprox (Alg. 3) share:
  * a list of SieveADN instances over the tracker's one TDN graph.
  *
  * At time t the instance with index l has processed exactly the alive edges
  * with remaining lifetime ≥ l. Index and remaining lifetimes drop together,
  * so the instance is the fixed cutoff c = t + l over the graph (see
  * [[SieveAdn]]), and the list, ascending by cutoff, shifts left by itself as
  * t advances. Lifetimes above L are capped at L before edges enter the TDN,
  * since A_L is the last instance they reach. [[feed]] offers a batch's
  * arrivals to every instance, and the instance with cutoff c takes those
  * whose graph expiry rises from below c to at least c (SieveADN's one rule
  * for what it sees). The head answers the query and is terminated once its
  * cutoff is t + 1. An entry may stand for [[members]] instances fed the
  * same updates; its calls are credited once per member, by
  * [[OracleCounter]]'s rule.
  *
  * The step path is primitive loops over arrays. [[observe]] reads the batch
  * into one array, re-making only the edges whose lifetime it caps, and
  * checks it once, before any of it changes state; the TDN then adds its
  * ranges without a second check and reports their arrivals. The instances
  * share one [[SieveAdn.SizeTable]], which holds k and ε and rejects a bad ε
  * at construction.
  */
abstract class InstanceListTracker(
    val k: Int,
    val eps: Double,
    val maxLifetime: Int,
    universe: Int,
) extends TdnTracker(k, universe) {
  private val sizes = new SieveAdn.SizeTable(k, eps)
  require(maxLifetime >= 1, "L must be >= 1")

  protected val counter = new OracleCounter
  // Ascending by cutoff; the head answers the query.
  protected val insts = mutable.ArrayDeque.empty[SieveAdn]

  protected def newInstance(cutoff: Int): SieveAdn = new SieveAdn(counter, graph, cutoff, sizes)

  /** Index of the first instance whose cutoff is at least c. */
  protected def indexOf(c: Int): Int = {
    var lo = 0
    var hi = insts.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (insts(mid).cutoff < c) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** How many instances entry j stands for. */
  protected def members(j: Int): Int = 1

  override def observe(batch: Seq[TimedEdge]): Unit = {
    val edges = batch.toArray
    var i     = 0
    while (i < edges.length) {
      if (edges(i).lifetime > maxLifetime) edges(i) = edges(i).copy(lifetime = maxLifetime)
      i += 1
    }
    tdn.check(edges) // reject a bad batch before any part of it changes state
    observeCapped(edges)
  }

  /** Add a checked batch whose lifetimes are at most L to G_t, range by
    * range, and feed each range's arrivals. The array is the tracker's own, to
    * reorder.
    */
  protected def observeCapped(edges: Array[TimedEdge]): Unit

  /** Offer `arrivals` to every instance: each takes the ones it sees. */
  protected def feed(arrivals: Array[Tdn.Arrival]): Unit = {
    var j = 0
    while (j < insts.length) {
      val calls = counter.calls
      insts(j).feed(arrivals)
      counter.add((counter.calls - calls) * (members(j) - 1))
      j += 1
    }
  }

  override def querySolution: Seq[Int] = if (insts.isEmpty) Nil else insts.head.solution

  /** g_t of the head instance, the query's value. */
  def currentValue: Int = if (insts.isEmpty) 0 else insts.head.currentValue

  override def endStep(): Unit = {
    if (insts.nonEmpty && insts.head.cutoff == tdn.now + 1) insts.removeHead() // terminate A_1
    super.endStep()
  }

  override def oracleCalls: Long = counter.calls
}

/** "Greedy": CELF rerun on G_t at every query (1 − 1/e approx). */
final class GreedyTracker(k: Int, universe: Int) extends TdnTracker(k, universe) {
  val counter = new OracleCounter

  override def name: String = "Greedy"

  override def querySolution: Seq[Int] = CelfGreedy.select(graph, k, counter)._1

  override def oracleCalls: Long = counter.calls
}

/** "Random": k nodes uniformly from V_t. */
final class RandomTracker(k: Int, universe: Int, seed: Long) extends TdnTracker(k, universe) {
  private val rng = new Random(seed)

  override def name: String = "Random"

  override def querySolution: Seq[Int] = RandomSelect.select(graph, k, rng)

  override def oracleCalls: Long = 0L
}
