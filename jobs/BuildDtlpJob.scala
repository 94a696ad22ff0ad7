package repro.jobs

import repro.dist.SparkDtlp

/** Build the DTLP index for a network on the cluster and print its shape.
  *
  * Usage: spark-submit --class repro.jobs.BuildDtlpJob <jar> [network] [z] [xi]
  */
object BuildDtlpJob {
  def main(args: Array[String]): Unit = {
    val netName = args.lift(0).getOrElse("NY-lite")
    val spark = JobUtil.session(s"build-dtlp-$netName")
    val (name, g, defaultZ) = JobUtil.network(netName)
    val z = args.lift(1).map(_.toInt).getOrElse(defaultZ)
    val xi = args.lift(2).map(_.toInt).getOrElse(8)
    val (dtlp, secs) = JobUtil.time(SparkDtlp.build(spark, g, z, xi))
    println(f"network=$name vertices=${g.numVertices} edges=${g.numEdges} z=$z xi=$xi")
    println(f"subgraphs=${dtlp.partitioning.subgraphs.size} " +
      f"boundary=${dtlp.partitioning.boundaryVertices.length} " +
      f"skeletonVertices=${dtlp.skeleton.numVertices} skeletonEdges=${dtlp.skeleton.numEdges}")
    println(f"buildSeconds=$secs%.2f")
    spark.stop()
  }
}
