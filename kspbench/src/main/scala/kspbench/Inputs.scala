package kspbench

import repro.core.{KspQuery, WeightUpdate, WeightedGraph}
import repro.roadnet.{RoadNetGen, TrafficModel}
import scala.util.Random

/** Index, engine and traffic settings shared by every workload. They are
  * passed on the command line so that `BENCHMARK.json` records them.
  */
final case class Settings(
    z: Int = 50,
    xi: Int = 8,
    k: Int = 4,
    maxIterations: Int = 1500,
    queryParallelism: Int = 2,
    sparkCores: Int = 2,
    alpha: Double = 0.35,
    tau: Double = 0.30)

/** Everything a run feeds the program, generated here so that the program
  * only sees these inputs. The road network and its traffic snapshots form a
  * fixed dataset named by `dataset` (the way `RoadNetGen` names its
  * networks); the seed draws the query stream.
  *
  * @param vertices  size of the generated road network
  * @param snapshots number of traffic snapshots to generate
  * @param minHops   least number of road segments between a query's two
  *                  endpoints (1: uniform pairs)
  */
final class Inputs(dataset: String, seed: Long, vertices: Int, snapshots: Int, settings: Settings,
                   minHops: Int = 1) {
  require(minHops >= 1, s"minHops must be at least 1, got $minHops")
  private val datasetSeed = scala.util.hashing.MurmurHash3.stringHash(dataset).toLong

  /** The workload graph at its initial weights. Never handed to the program:
    * builds get their own [[freshGraph]], because the index mutates the graph
    * it was built on.
    */
  private val graph: WeightedGraph = RoadNetGen.generate(vertices, seed = datasetSeed)

  def freshGraph(): WeightedGraph = graph.snapshot()

  /** Update batches of snapshots 1..n, each priced against the weights the
    * previous ones left (the paper's α/τ traffic model).
    */
  val batches: Vector[Seq[WeightUpdate]] =
    TrafficModel.evolve(graph.snapshot(), settings.alpha, settings.tau, snapshots, datasetSeed).toVector

  /** Whole graph after the first `epoch` snapshots: the Yen oracle's input. */
  def graphAt(epoch: Int): WeightedGraph = {
    val g = graph.snapshot()
    batches.take(epoch).foreach(g.applyUpdates)
    g
  }

  /** A fresh copy of the query stream: uniform random (s, t) pairs at least
    * `minHops` road segments apart, numbered from 0. Every call replays the
    * same sequence.
    */
  def queryStream(): Iterator[KspQuery] = pairs(new Random(seed))

  /** A fixed set of `n` queries drawn like the stream but from the dataset,
    * not the seed, numbered from `firstId`; the seed only shuffles their
    * order. Every run of a workload then times the same queries.
    */
  def queryPool(n: Int, firstId: Long): Vector[KspQuery] = {
    val drawn = pairs(new Random(datasetSeed)).take(n).map(q => q.copy(id = q.id + firstId)).toVector
    new Random(seed).shuffle(drawn)
  }

  private def pairs(r: Random): Iterator[KspQuery] =
    Iterator.from(0).map { i =>
      val s = r.nextInt(graph.numVertices)
      var t = r.nextInt(graph.numVertices)
      while (t == s || Inputs.withinHops(graph, s, t, minHops - 1)) t = r.nextInt(graph.numVertices)
      KspQuery(i, s, t, settings.k)
    }
}

object Inputs {
  /** Whether `t` is at most `hops` edges from `s` (breadth-first, bounded). */
  def withinHops(g: WeightedGraph, s: Int, t: Int, hops: Int): Boolean = {
    val depth = scala.collection.mutable.HashMap(s -> 0)
    val queue = scala.collection.mutable.Queue(s)
    while (queue.nonEmpty && !depth.contains(t)) {
      val v = queue.dequeue()
      val d = depth(v)
      if (d < hops) g.foreachNeighbor(v) { (u, _) =>
        if (!depth.contains(u)) { depth(u) = d + 1; queue += u }
      }
    }
    depth.contains(t)
  }
}
