package repro.core

import scala.util.Random

/** The paper's "Random" baseline: k nodes drawn uniformly from V_t. */
object RandomSelect {

  def select(g: Digraph, k: Int, rng: Random): Seq[Int] = {
    val nodes = g.nodeArray
    if (nodes.length <= k) nodes.toSeq
    else rng.shuffle(nodes.toSeq).take(k)
  }
}
