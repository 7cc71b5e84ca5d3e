package repro

import scala.util.Random
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Digraph
import repro.tdn.TimedEdge

/** Deterministic random fixtures shared by the unit suites. */
object TestData {

  /** m random directed edges (no self-loops) over [0, n). */
  def randomEdges(n: Int, m: Int, seed: Long): Seq[(Int, Int)] = {
    val rng = new Random(seed)
    (0 until m).map { _ =>
      val u = rng.nextInt(n)
      var v = rng.nextInt(n)
      if (v == u) v = (v + 1) % n
      (u, v)
    }
  }

  def digraphOf(universe: Int, edges: Iterable[(Int, Int)]): Digraph = {
    val g = new Digraph(universe)
    edges.foreach { case (u, v) => g.addEdge(u, v, Int.MaxValue) }
    g
  }

  /** A random TDN stream: `steps` batches of `perStep` edges with lifetimes
    * uniform in [1, maxL].
    */
  def randomTimedStream(
      universe: Int,
      steps: Int,
      perStep: Int,
      maxL: Int,
      seed: Long,
  ): IndexedSeq[Seq[TimedEdge]] = {
    val rng = new Random(seed)
    (0 until steps).map { _ =>
      (0 until perStep).map { _ =>
        val u = rng.nextInt(universe)
        var v = rng.nextInt(universe)
        if (v == u) v = (v + 1) % universe
        TimedEdge(u, v, 1 + rng.nextInt(maxL))
      }
    }
  }

  /** Edge list as a DataFrame (src, dst) for the DuckDB oracle. */
  def edgesDf(spark: SparkSession, edges: Seq[(Int, Int)]): DataFrame = {
    import spark.implicits._
    edges.toDF("src", "dst")
  }

  /** Nodes of a seed set as a single-column DataFrame. */
  def seedsDf(spark: SparkSession, seeds: Seq[Int]): DataFrame = {
    import spark.implicits._
    seeds.toDF("node")
  }

  /** Local reference reachability (simple, independent of Digraph's BFS). */
  def referenceReach(edges: Seq[(Int, Int)], seeds: Seq[Int]): Set[Int] = {
    val adj = edges.groupBy(_._1).view.mapValues(_.map(_._2)).toMap
    var visited = seeds.toSet
    var frontier = seeds.toList
    while (frontier.nonEmpty) {
      val next = frontier.flatMap(u => adj.getOrElse(u, Nil)).filterNot(visited)
      visited ++= next
      frontier = next.distinct
    }
    visited
  }
}
