package repro.ic

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Weighted influence graph under the independent-cascade (IC) model.
  *
  * The index-based baselines (DIM / IMM / TIM+) assume per-edge diffusion
  * probabilities. Following §V-C, if node u imposed x alive interactions on
  * node v at time t, edge (u, v) gets p_uv = 2/(1 + e^{−0.2x}) − 1.
  *
  * Stored as reverse adjacency (per-target in-edges with probabilities),
  * because RR-set sampling walks edges backwards.
  */
final class IcGraph private (
    val universe: Int,
    private val inEdges: Array[ArrayBuffer[(Int, Double)]],
    val nodes: Array[Int],
) {

  /** In-edges of v as (source, probability), or null if it has none. */
  private[ic] def inBuf(v: Int): ArrayBuffer[(Int, Double)] = inEdges(v)

  def nodeCount: Int = nodes.length

  def edgeCount: Int = {
    var s = 0
    var i = 0
    while (i < universe) { if (inEdges(i) != null) s += inEdges(i).length; i += 1 }
    s
  }
}

object IcGraph {

  /** §V-C diffusion probability from interaction multiplicity x. */
  def probabilityOf(x: Int): Double = 2.0 / (1.0 + math.exp(-0.2 * x)) - 1.0

  /** Build from alive-interaction multiplicities ((u, v) → x). */
  def fromCounts(counts: Iterable[((Int, Int), Int)], universe: Int): IcGraph = {
    val in      = new Array[ArrayBuffer[(Int, Double)]](universe)
    val present = new java.util.BitSet(universe)
    counts.foreach { case ((u, v), x) =>
      if (u != v && x > 0) {
        if (in(v) == null) in(v) = new ArrayBuffer[(Int, Double)](4)
        in(v) += ((u, probabilityOf(x)))
        present.set(u)
        present.set(v)
      }
    }
    val ns = new ArrayBuffer[Int](present.cardinality())
    var i  = present.nextSetBit(0)
    while (i >= 0) { ns += i; i = present.nextSetBit(i + 1) }
    new IcGraph(universe, in, ns.toArray)
  }
}

/** Reverse-reachable (RR) set machinery shared by DIM / IMM / TIM+.
  *
  * One RR set = the random set of nodes that reach a uniformly random target
  * in a random reverse IC simulation; σ(S) ≈ n · (fraction of RR sets hit by S).
  */
object RRSets {

  /** Sample one RR set for `target` (target always included). */
  def sample(ic: IcGraph, target: Int, rng: java.util.Random): Array[Int] = {
    val visited = new java.util.BitSet(ic.universe)
    val out     = new ArrayBuffer[Int](8)
    var stack   = List(target)
    visited.set(target)
    out += target
    while (stack.nonEmpty) {
      val v = stack.head
      stack = stack.tail
      val in = ic.inBuf(v)
      if (in != null) {
        var i = 0
        while (i < in.length) {
          val (u, p) = in(i)
          if (!visited.get(u) && rng.nextDouble() < p) {
            visited.set(u)
            out += u
            stack = u :: stack
          }
          i += 1
        }
      }
    }
    out.toArray
  }

  /** Greedy max-cover over RR sets.
    *
    * @return (seeds, number of RR sets covered)
    */
  def maxCover(rr: IndexedSeq[Array[Int]], k: Int, universe: Int): (Seq[Int], Int) = {
    if (rr.isEmpty) return (Nil, 0)
    val byNode = new mutable.HashMap[Int, ArrayBuffer[Int]]
    rr.zipWithIndex.foreach { case (set, id) =>
      set.foreach(v => byNode.getOrElseUpdate(v, new ArrayBuffer[Int](4)) += id)
    }
    val covered = new java.util.BitSet(rr.size)
    val degree  = mutable.HashMap.from(byNode.view.mapValues(_.length))
    val seeds   = new ArrayBuffer[Int](k)
    var total   = 0
    while (seeds.length < k && degree.nonEmpty) {
      // Recompute true coverage lazily (CELF-style would also work; sets are small).
      val (best, gain) = degree.iterator
        .map { case (v, _) => (v, byNode(v).count(id => !covered.get(id))) }
        .maxBy { case (v, g) => (g, v) }
      if (gain <= 0) return (seeds.toSeq, total)
      seeds += best
      byNode(best).foreach(covered.set)
      total += gain
      degree.remove(best)
    }
    (seeds.toSeq, total)
  }
}
