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
    new IcGraph(universe, in, present.stream().toArray)
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

  /** The node → set-ids inverted index of an RR collection, set i's id being i. */
  def index(rr: Iterable[Array[Int]]): mutable.HashMap[Int, ArrayBuffer[Int]] = {
    val byNode = new mutable.HashMap[Int, ArrayBuffer[Int]]
    rr.iterator.zipWithIndex.foreach { case (set, id) =>
      set.foreach(v => byNode.getOrElseUpdate(v, new ArrayBuffer[Int](4)) += id)
    }
    byNode
  }

  /** Greedy max-cover over the RR sets of a node → set-ids index, which it
    * only reads. Each round takes the node with the largest (uncovered-set
    * count, node id) and stops at gain 0, so a chosen node, whose sets are
    * then covered, is never taken again. Nodes with no ids gain 0.
    *
    * @return (seeds, number of RR sets covered)
    */
  def maxCover(byNode: collection.Map[Int, Iterable[Int]], k: Int): (Seq[Int], Int) = {
    val covered = new java.util.BitSet
    val seeds   = new ArrayBuffer[Int](k)
    var total   = 0
    var gain    = 1
    while (seeds.length < k && gain > 0) {
      var best = -1
      gain = 0
      byNode.foreachEntry { (v, ids) =>
        val g = ids.count(id => !covered.get(id))
        if (g > gain || (g == gain && v > best)) { best = v; gain = g }
      }
      if (gain > 0) {
        seeds += best
        byNode(best).foreach(covered.set)
        total += gain
      }
    }
    (seeds.toSeq, total)
  }
}
