package repro.ic

import scala.collection.mutable
import repro.core.TdnTracker
import repro.tdn.TimedEdge

/** DIM-lite: a simplified reimplementation of the dynamic RR-sketch index of
  * Ohsaka et al. (VLDB 2016), the paper's "DIM" baseline (β = 32 as in §V-C).
  *
  * Maintained state: a fixed pool of R = β·256 RR sketches (each a target node
  * plus the sampled reverse-reachable node set) over the current IC graph, and
  * a node→sketch inverted index.
  *
  *  - Edge insertion (u, v): every live sketch containing v but not u flips a
  *    coin with the marginal probability of one more interaction and, on
  *    success, extends by a reverse IC walk from u (the incremental insertion
  *    rule of the original system). Newly appearing nodes re-target a
  *    proportional share of the pool so targets stay ~uniform over V_t.
  *  - Edge expiry / probability decrease: `endStep` marks stale, through the
  *    node→sketch index, the sketches holding the head of a pair whose
  *    multiplicity fell and those holding a node that left the graph (the
  *    alive set of the last observe/endStep minus the new one). That finds
  *    every sketch with a departed member, without scanning the pool: each
  *    member of a live sketch was sampled or extended on the IC graph of the
  *    last observe/endStep, and the index lists every member of every
  *    sketch. A sample holds its target, so this covers departed targets.
  *    Stale sketches are lazily resampled at query time (the original
  *    rebuilds eagerly; lazy rebuild batches the same work).
  *  - A rotating 10% slice of the pool is additionally refreshed per query,
  *    bounding the drift between long-lived sketches and the current IC graph
  *    (the original's sketch distribution is kept exact by bookkeeping we
  *    approximate here; see DESIGN.md §5).
  *
  * Queries run greedy max-cover ([[RRSets.maxCover]]) over the inverted
  * index. The simplification preserves the paper's observed behaviour:
  * reasonable but less stable solution quality, and throughput between
  * Greedy and the static-index methods.
  */
final class DimTracker(
    k: Int,
    universe: Int,
    beta: Int = 32,
    seed: Long = 7L,
) extends TdnTracker(k, universe) {

  require(beta >= 1, s"beta must be >= 1, got $beta")

  private val rng      = new java.util.Random(seed)
  private val poolSize = beta * 256

  private val sketches  = new Array[Array[Int]](poolSize)
  private val stale     = new java.util.BitSet(poolSize)
  private val byNode    = new mutable.HashMap[Int, mutable.BitSet]
  private var prevCount = Map.empty[(Int, Int), Int]
  private var alive     = Set.empty[Int] // tdn.aliveNodes after the last observe or endStep
  private var refreshCursor = 0
  // The IC graph of G_t, or null after endStep until a query builds it.
  private var icCache: IcGraph = null

  stale.set(0, poolSize) // everything starts unsampled

  override def name: String = "DIM"

  private def index(id: Int, nodes: Array[Int]): Unit =
    nodes.foreach(v => byNode.getOrElseUpdate(v, mutable.BitSet.empty) += id)

  private def unindex(id: Int): Unit = {
    val s = sketches(id)
    // A node left in no sketch leaves the index, which each query scans.
    if (s != null) s.foreach { v =>
      val ids = byNode(v)
      ids -= id
      if (ids.isEmpty) byNode.remove(v)
    }
  }

  override def observe(batch: Seq[TimedEdge]): Unit = {
    val before = alive
    super.observe(batch)
    val counts = tdn.interactionCounts
    icCache = IcGraph.fromCounts(counts, universe)

    // New nodes: re-target a proportional share of the pool so that sketch
    // targets keep approximating a uniform draw over V_t.
    val after    = tdn.aliveNodes
    alive = after
    val newNodes = after -- before
    if (newNodes.nonEmpty && after.nonEmpty) {
      val quota = math.max(1, poolSize * newNodes.size / after.size)
      (0 until quota).foreach(_ => stale.set(rng.nextInt(poolSize)))
    }

    // Incremental insertion: extend live sketches that contain the new head.
    // The coin is the *marginal* activation probability of going from x−1 to
    // x interactions, (p_x − p_{x−1})/(1 − p_{x−1}) — flipping the full
    // single-interaction p on every repeat would overextend old sketches
    // until max-cover saturates.
    batch.foreach { e =>
      val x     = counts.getOrElse((e.u, e.v), 1)
      val pPrev = IcGraph.probabilityOf(x - 1)
      val pMarg = (IcGraph.probabilityOf(x) - pPrev) / math.max(1e-12, 1.0 - pPrev)
      byNode.get(e.v).foreach { ids =>
        ids.toSeq.foreach { id =>
          if (!stale.get(id)) {
            val cur = sketches(id)
            if (cur != null && !cur.contains(e.u) && rng.nextDouble() < pMarg) {
              val ext    = RRSets.sample(icCache, e.u, rng)
              val merged = (cur.toSet ++ ext).toArray
              unindex(id)
              sketches(id) = merged
              index(id, merged)
            }
          }
        }
      }
    }
  }

  override def endStep(): Unit = {
    super.endStep()
    val now    = tdn.interactionCounts
    val before = alive
    alive = tdn.aliveNodes
    // A fallen (u, v) multiplicity invalidates the sketches holding the head.
    prevCount.foreach { case ((u, v), x) => if (now.getOrElse((u, v), 0) < x) invalidate(v) }
    // Every member of a live sketch was alive at the last observe or endStep,
    // so the sketches holding a departed node are exactly its index entries.
    (before -- alive).foreach(invalidate)
    prevCount = now
    icCache = null
  }

  /** Mark stale every sketch that holds v. */
  private def invalidate(v: Int): Unit = byNode.get(v).foreach(_.foreach(stale.set))

  private def rebuildStale(): Unit = {
    // prevCount equals the TDN's counts after endStep.
    if (icCache == null) icCache = IcGraph.fromCounts(prevCount, universe)
    var id = stale.nextSetBit(0)
    while (id >= 0) {
      unindex(id)
      if (icCache.nodeCount == 0) sketches(id) = null // nothing alive: vacuous, left stale
      else {
        val s = RRSets.sample(icCache, icCache.nodes(rng.nextInt(icCache.nodeCount)), rng)
        sketches(id) = s
        index(id, s)
        stale.clear(id)
      }
      id = stale.nextSetBit(id + 1)
    }
  }

  override def querySolution: Seq[Int] = {
    // Age cap: refresh a rotating 10% slice per query so every sketch is
    // resampled at least every 10 queries — bounds the drift between the
    // pool and the current IC graph without a full rebuild.
    val slice = math.max(1, poolSize / 10)
    (0 until slice).foreach(i => stale.set((refreshCursor + i) % poolSize))
    refreshCursor = (refreshCursor + slice) % poolSize
    rebuildStale()
    RRSets.maxCover(byNode, k)._1
  }

  override def oracleCalls: Long = 0L
}
